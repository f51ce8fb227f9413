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
from .core import IterationRecord, ObjectiveSchema, Pool, Problem, RunResult
from .dominance import _class_scores, front0

# Largest mixed-radix key what_to_evaluate_next lets a candidate's leaves make.
_KEY_LIMIT = np.iinfo(np.int64).max


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


def run_flash(problem: Problem, pool: Pool, config: FlashConfig) -> RunResult:
    """Optimize over a finite candidate pool.

    Row k of the run's objective matrix y is its k-th evaluation, of pool
    row rows[k]. A new evaluation costs a life iff it is off the front of
    the best rows plus itself, that is, iff a member of that front
    dominates it; one that joins or reshapes the front costs none.
    """
    n = len(pool)
    if config.size0 > n:
        raise ValueError(f"size0={config.size0} exceeds pool of {n}")
    schema = problem.schema
    rng = random.Random(config.seed)
    y = np.empty((n, len(schema)))
    unevaluated = np.ones(n, dtype=bool)
    rows: list[int] = []

    def evaluate(picked: list[int]) -> None:
        y[len(rows) : len(rows) + len(picked)] = problem.evaluate(
            pool.ids[picked], pool.x[picked]
        )
        rows.extend(picked)
        unevaluated[picked] = False

    evaluate(rng.sample(range(n), config.size0))
    best = front0(y[: len(rows)], schema).tolist()
    lives = config.lives
    trace: list[IterationRecord] = []
    columns = np.ascontiguousarray(pool.x.T)  # column-major candidates route fastest

    while lives > 0 and len(rows) < n:
        models = cart.fit_arrays(pool.x[rows], y[: len(rows)])
        cand = np.flatnonzero(unevaluated)
        pick = what_to_evaluate_next(columns.take(cand, axis=1).T, pool.ids[cand], models, schema)
        new = len(rows)
        evaluate([int(cand[pick])])

        grown = best + [new]
        kept = front0(y[grown], schema)
        if kept[-1] != len(best):  # the new row is off the front
            lives -= 1
        else:
            best = [grown[k] for k in kept]
        trace.append(IterationRecord(int(pool.ids[rows[new]]), lives, len(best)))

    return RunResult(pool.ids[rows], pool.x[rows], y[: len(rows)], np.array(best), trace)


def what_to_evaluate_next(
    cand_matrix: np.ndarray,
    cand_ids: Sequence[int],
    models: Sequence[cart.RegressionTree],
    schema: ObjectiveSchema,
) -> int:
    """Row index of the unevaluated candidate whose predicted objectives win.

    Predictions from one tree per objective form pseudo-points; the row
    returned is the indicator-best member of their non-dominated front,
    ties broken by the lowest candidate id.

    Candidates that reach the same leaf of every tree form a cell and share
    one predicted vector, so the front and the scores are taken over the
    cells, each weighted by its number of candidates. Cells on the front
    with equal vectors merge before scoring. Copies of a vector share front
    membership and domination score, so this is exact.
    """
    if len(cand_ids) == 0:
        raise ValueError("no candidates to choose from")
    if len(models) != len(schema):
        raise ValueError("need exactly one model per objective")
    leaves = [cart.apply(model, cand_matrix) for model in models]
    # One key per candidate, its leaf numbers as the digits of a mixed
    # radix; the keys are renumbered densely before a digit would overflow.
    key = np.zeros(len(cand_ids), dtype=np.int64)
    span = 1
    for model, leaf in zip(models, leaves):
        if span * len(model.left) > _KEY_LIMIT:
            _, key = np.unique(key, return_inverse=True)
            span = int(key.max()) + 1
        key = key * len(model.left) + leaf
        span *= len(model.left)
    _, cell, counts = np.unique(key, return_inverse=True, return_counts=True)
    member = np.empty(len(counts), dtype=np.intp)  # one candidate of each cell
    member[cell] = np.arange(len(cell))
    preds = np.column_stack([m.prediction[leaf[member]] for m, leaf in zip(models, leaves)])
    front = front0(preds, schema)
    vectors, merged = np.unique(preds[front], axis=0, return_inverse=True)
    merged = merged.reshape(-1)
    weights = np.bincount(merged, weights=counts[front]).astype(counts.dtype)
    scores = _class_scores(vectors, weights, schema)[merged]
    rows = np.flatnonzero(np.isin(cell, front[scores == scores.max()]))
    return int(rows[np.argmin(np.asarray(cand_ids)[rows])])
