"""Minimal NSGA-II baseline: fast non-dominated sorting plus
crowding-distance truncation over a fixed generation budget.

Offspring come from binary tournaments, uniform crossover, and per-gene
mutation that resamples from the gene's valid value set. On tabular
problems every child is snapped to the nearest not-yet-evaluated pool row
(the nearest row of all, once every row is taken) so evaluations stay real
measurements; generative problems repair children through their own repair
hook. The evaluation budget is exact: pop_size * (generations + 1).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    DecisionPoint,
    EvaluatedPoint,
    ObjectiveSchema,
    Problem,
    ProblemKind,
    RunResult,
    min_max_scale,
)
from .dominance import _ordered_sum, front0, nondominated_sort

CROSSOVER_PROB = 0.9  # per pair of parents; each gene then mutates with 1 / arity


@dataclass(frozen=True)
class Nsga2Config:
    pop_size: int = 100
    generations: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.pop_size < 4 or self.pop_size % 2 != 0:
            raise ValueError("pop_size must be even and at least 4")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")


def crowding_distance(
    front: Sequence[EvaluatedPoint], schema: ObjectiveSchema
) -> list[float]:
    """Classic crowding: boundary points get +inf, interior points sum the
    range-normalized gaps between their sorted neighbors per objective."""
    if not front:
        raise ValueError("front must be nonempty")
    n = len(front)
    values = np.array([p.objectives.values for p in front], dtype=float)
    dist = np.zeros(n)
    for j in range(len(schema)):
        order = np.argsort(values[:, j], kind="stable")
        col = values[order, j]
        dist[order[[0, -1]]] = math.inf
        span = col[-1] - col[0]
        if span > 0:  # inf + a finite gap stays inf, so boundary points stay inf
            dist[order[1:-1]] += (col[2:] - col[:-2]) / span
    return [float(d) for d in dist]


def pool_snapper(
    table: np.ndarray, used: Sequence[int]
) -> Callable[[Sequence[float]], int]:
    """Snap function over a decision table's rows: each call returns the row
    nearest to the decisions after min-max scaling, lowest index on ties,
    among rows not yet returned or in used, or among all rows once none is.

    One contiguous array and one buffer per column; taken rows carry an inf
    penalty on the first term, and the terms are added in numpy's own order
    (_ordered_sum), so each distance equals ((scaled - vec) ** 2).sum(axis=1).
    """
    lo, hi = table.min(axis=0), table.max(axis=0)
    cols = [np.ascontiguousarray(c) for c in min_max_scale(table, lo, hi).T]
    terms = [np.empty(len(table)) for _ in cols]
    penalty = np.zeros(len(table))
    penalty[list(used)] = np.inf
    open_rows = int(np.count_nonzero(penalty == 0))

    def snap(decisions: Sequence[float]) -> int:
        nonlocal open_rows
        vec = min_max_scale(np.array(decisions, dtype=float), lo, hi)
        for col, term, v in zip(cols, terms, vec):
            np.square(np.subtract(col, v, out=term), out=term)
        if open_rows:
            terms[0] += penalty
        row = int(np.argmin(_ordered_sum(terms)))  # first minimum: lowest row
        if penalty[row] == 0:
            penalty[row] = np.inf
            open_rows -= 1
        return row

    return snap


def run_nsga2(problem: Problem, config: Nsga2Config) -> RunResult:
    rng = random.Random(config.seed)
    arity = problem.decision_arity
    p_mut = 1.0 / arity
    gene_values = problem.gene_values()

    tabular = problem.kind is ProblemKind.TABULAR
    if tabular:
        if config.pop_size > problem.pool_size:
            raise ValueError(
                f"pop_size {config.pop_size} exceeds pool of {problem.pool_size}"
            )
        rows = problem.pool()
        start = rng.sample(range(len(rows)), config.pop_size)
        points = [rows[i] for i in start]
        snap = pool_snapper(problem.decision_matrix(), start)
    else:
        points = [
            DecisionPoint(i, problem.sample_decisions(rng))
            for i in range(config.pop_size)
        ]
    next_id = config.pop_size

    population = [problem.evaluate(p) for p in points]
    evaluated = list(population)

    def make_child(decisions: list[float]) -> DecisionPoint:
        nonlocal next_id
        if tabular:
            return rows[snap(decisions)]
        repaired = problem.repair(tuple(decisions))
        point = DecisionPoint(next_id, repaired)
        next_id += 1
        return point

    _, ranks, crowd = _select(population, config.pop_size, problem.schema)
    for _ in range(config.generations):
        def tournament() -> EvaluatedPoint:
            a = rng.randrange(config.pop_size)
            b = rng.randrange(config.pop_size)
            if ranks[a] != ranks[b]:
                return population[a] if ranks[a] < ranks[b] else population[b]
            if crowd[a] != crowd[b]:
                return population[a] if crowd[a] > crowd[b] else population[b]
            return population[a]

        offspring: list[EvaluatedPoint] = []
        for _ in range(config.pop_size // 2):
            p1 = tournament().point.decisions
            p2 = tournament().point.decisions
            if rng.random() < CROSSOVER_PROB:
                c1, c2 = [], []
                for g1, g2 in zip(p1, p2):
                    if rng.random() < 0.5:
                        c1.append(g1)
                        c2.append(g2)
                    else:
                        c1.append(g2)
                        c2.append(g1)
            else:
                c1, c2 = list(p1), list(p2)
            for child in (c1, c2):
                for g in range(arity):
                    if rng.random() < p_mut:
                        child[g] = rng.choice(gene_values[g])
                offspring.append(problem.evaluate(make_child(child)))
        evaluated.extend(offspring)
        combined = population + offspring
        chosen, rank_all, crowd_all = _select(combined, config.pop_size, problem.schema)
        population = [combined[k] for k in chosen]
        ranks = [rank_all[k] for k in chosen]
        crowd = [crowd_all[k] for k in chosen]

    best = front0(population, problem.schema)
    return RunResult(evaluated=evaluated, best=best, evals=len(evaluated), trace=[])


def _select(combined, pop_size, schema):
    """Environmental selection with one non-dominated sort: whole fronts
    first, the boundary front truncated by descending crowding distance
    (ties to earliest eval).

    Returns (chosen, rank, crowd): chosen positions of `combined` in
    selection order, and the front rank and crowding distance that each
    chosen position has within the survivors, indexed by position. The
    survivors keep their fronts when sorted alone, since every member of a
    front is dominated by some member of the previous, whole front; only a
    truncated front is crowded again, among its own survivors.
    """
    partition = nondominated_sort(combined, schema)
    position = {p.eval_index: k for k, p in enumerate(combined)}
    rank = [0] * len(combined)
    crowd = [0.0] * len(combined)
    chosen: list[int] = []
    for r, front_ids in enumerate(partition.fronts):
        members = [position[i] for i in front_ids]
        dists = crowding_distance([combined[k] for k in members], schema)
        room = pop_size - len(chosen)
        if len(members) > room:
            ordered = sorted(
                range(len(members)),
                key=lambda k: (-dists[k], combined[members[k]].eval_index),
            )
            chosen.extend(members[k] for k in ordered[:room])
            members = [members[k] for k in sorted(ordered[:room])]  # eval order
            dists = crowding_distance([combined[k] for k in members], schema)
        else:
            chosen.extend(members)
        for k, d in zip(members, dists):
            rank[k] = r
            crowd[k] = d
        if len(chosen) == pop_size:
            break
    return chosen, rank, crowd
