"""The tree-surrogate sequential optimizer.

The loop evaluates a small random sample, then repeatedly: fits one
regression tree per objective on everything evaluated so far, predicts all
unevaluated candidates, picks the most promising one (front of the
predictions, then indicator-best within it), evaluates it for real, and
loses a life whenever the non-dominated set fails to grow. Lives only ever
decrease; the run stops when they hit zero or the candidate pool is
exhausted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import cart
from .core import (
    DecisionPoint,
    IterationRecord,
    ObjectiveSchema,
    Problem,
    RunResult,
)
from .dominance import front0, nondominated_mask, _class_scores


@dataclass(frozen=True)
class FlashConfig:
    size0: int = 20
    lives: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.size0 < 1:
            raise ValueError("size0 must be at least 1")
        if self.lives < 1:
            raise ValueError("lives must be at least 1")


def run_flash(problem: Problem, pool: Sequence[DecisionPoint], config: FlashConfig) -> RunResult:
    """Optimize over a finite candidate pool.

    Stagnation is judged by id-set equality of the non-dominated front
    before and after each new evaluation; a new point that joins or
    reshapes the front costs no life.
    """
    pool = list(pool)
    if config.size0 > len(pool):
        raise ValueError(f"size0={config.size0} exceeds pool of {len(pool)}")
    schema = problem.schema
    rng = random.Random(config.seed)

    initial = rng.sample(pool, config.size0)
    evaluated = [problem.evaluate(p) for p in initial]
    taken = {p.id for p in initial}

    remaining = [p for p in pool if p.id not in taken]
    cand_matrix = np.array([p.decisions for p in remaining], dtype=float).reshape(
        len(remaining), problem.decision_arity
    )
    cand_ids = np.array([p.id for p in remaining], dtype=int)

    best = front0(evaluated, schema)
    lives = config.lives
    trace: list[IterationRecord] = []

    while lives > 0 and remaining:
        x_train = np.array([ev.point.decisions for ev in evaluated], dtype=float)
        models = [
            cart.fit_arrays(
                x_train,
                np.array([ev.objectives.values[j] for ev in evaluated], dtype=float),
            )
            for j in range(len(schema))
        ]
        pick = what_to_evaluate_next(cand_matrix, cand_ids, models, schema)
        chosen = remaining[pick]
        ev = problem.evaluate(chosen)
        evaluated.append(ev)
        del remaining[pick]
        cand_ids = np.delete(cand_ids, pick)
        cand_matrix = np.delete(cand_matrix, pick, axis=0)

        tmp = front0(best + [ev], schema)
        if {e.point.id for e in tmp} == {e.point.id for e in best}:
            lives -= 1
        else:
            best = tmp
        trace.append(IterationRecord(chosen.id, lives, len(best)))

    return RunResult(evaluated=evaluated, best=best, evals=len(evaluated), trace=trace)


def what_to_evaluate_next(
    cand_matrix: np.ndarray,
    cand_ids: Sequence[int],
    models: Sequence[cart.RegressionTree],
    schema: ObjectiveSchema,
) -> int:
    """Row index of the unevaluated candidate whose predicted objectives win.

    Predictions from one tree per objective form pseudo-points; the row
    returned is the indicator-best member of their non-dominated front,
    ties broken by the lowest candidate id. The filter runs on the raw
    predicted rows and keeps copies of a front vector together; only the
    front rows are then grouped by exact vector, so each distinct front
    vector is scored once, weighted by its number of copies. Copies share
    front membership and domination score, so this is exact.
    """
    if len(cand_ids) == 0:
        raise ValueError("no candidates to choose from")
    if len(models) != len(schema):
        raise ValueError("need exactly one model per objective")
    preds = np.column_stack([cart.predict_many(m, cand_matrix) for m in models])
    front = np.nonzero(nondominated_mask(preds * -np.array(schema.weights)))[0]
    keys, inverse, counts = np.unique(
        preds[front], axis=0, return_inverse=True, return_counts=True
    )
    scores = _class_scores(keys, counts, schema)[inverse.reshape(-1)]
    best = front[scores == scores.max()]
    return int(best[np.argmin(np.asarray(cand_ids)[best])])
