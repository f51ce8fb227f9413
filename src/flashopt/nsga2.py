"""Minimal NSGA-II baseline: fast non-dominated sorting plus
crowding-distance truncation over a fixed generation budget.

Offspring come from binary tournaments, uniform crossover, and per-gene
mutation that resamples from the gene's valid value set. On tabular
problems every child is snapped to the nearest not-yet-evaluated pool row
so evaluations stay real measurements; generative problems repair children
through their own repair hook. The evaluation budget is exact:
pop_size * (generations + 1).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

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
from .dominance import front0, nondominated_sort


@dataclass(frozen=True)
class Nsga2Config:
    pop_size: int = 100
    generations: int = 50
    crossover_prob: float = 0.9
    mutation_prob: float | None = None  # defaults to 1 / decision arity
    seed: int = 0

    def __post_init__(self):
        if self.pop_size < 4 or self.pop_size % 2 != 0:
            raise ValueError("pop_size must be even and at least 4")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover_prob must lie in [0, 1]")
        if self.mutation_prob is not None and not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError("mutation_prob must lie in [0, 1]")


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
        dist[order[0]] = math.inf
        dist[order[-1]] = math.inf
        span = values[order[-1], j] - values[order[0], j]
        if span <= 0:
            continue
        for k in range(1, n - 1):
            if math.isinf(dist[order[k]]):
                continue
            gap = values[order[k + 1], j] - values[order[k - 1], j]
            dist[order[k]] += gap / span
    return [float(d) for d in dist]


def run_nsga2(problem: Problem, config: Nsga2Config) -> RunResult:
    rng = random.Random(config.seed)
    arity = problem.decision_arity
    p_mut = config.mutation_prob if config.mutation_prob is not None else 1.0 / arity
    gene_values = problem.gene_values()

    tabular = problem.kind is ProblemKind.TABULAR
    if tabular:
        if config.pop_size > problem.pool_size:
            raise ValueError(
                f"pop_size {config.pop_size} exceeds pool of {problem.pool_size}"
            )
        table = problem.decision_matrix()
        lo, hi = table.min(axis=0), table.max(axis=0)
        table_norm = min_max_scale(table, lo, hi)
        rows = problem.pool()
        unused = np.ones(len(rows), dtype=bool)
        start = rng.sample(range(len(rows)), config.pop_size)
        points = [rows[i] for i in start]
        for i in start:
            unused[i] = False
    else:
        points = [
            DecisionPoint(i, problem.sample_decisions(rng))
            for i in range(config.pop_size)
        ]
    next_id = config.pop_size

    population = [problem.evaluate(p) for p in points]
    evaluated = list(population)

    def snap(decisions: tuple[float, ...]) -> DecisionPoint:
        vec = min_max_scale(np.array(decisions, dtype=float), lo, hi)
        d = ((table_norm - vec) ** 2).sum(axis=1)
        if unused.any():
            d = np.where(unused, d, np.inf)
        row = int(np.argmin(d))  # first minimum, so ties go to the lowest id
        unused[row] = False
        return rows[row]

    def make_child(decisions: list[float]) -> DecisionPoint:
        nonlocal next_id
        if tabular:
            return snap(tuple(decisions))
        repaired = problem.repair(tuple(decisions))
        point = DecisionPoint(next_id, repaired)
        next_id += 1
        return point

    for _ in range(config.generations):
        ranks, crowd = _rank_and_crowd(population, problem.schema)

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
            if rng.random() < config.crossover_prob:
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
        population = _select(population + offspring, config.pop_size, problem.schema)

    best = front0(population, problem.schema)
    return RunResult(evaluated=evaluated, best=best, evals=len(evaluated), trace=[])


def _rank_and_crowd(population, schema):
    partition = nondominated_sort(population, schema)
    by_eval = {p.eval_index: k for k, p in enumerate(population)}
    ranks = [0] * len(population)
    crowd = [0.0] * len(population)
    for rank, front_ids in enumerate(partition.fronts):
        members = [by_eval[i] for i in front_ids]
        dists = crowding_distance([population[k] for k in members], schema)
        for k, d in zip(members, dists):
            ranks[k] = rank
            crowd[k] = d
    return ranks, crowd


def _select(combined, pop_size, schema):
    """Environmental selection: whole fronts first, the boundary front
    truncated by descending crowding distance (ties to earliest eval)."""
    partition = nondominated_sort(combined, schema)
    by_eval = {p.eval_index: p for p in combined}
    chosen: list[EvaluatedPoint] = []
    for front_ids in partition.fronts:
        members = [by_eval[i] for i in front_ids]
        if len(chosen) + len(members) <= pop_size:
            chosen.extend(members)
            if len(chosen) == pop_size:
                break
            continue
        dists = crowding_distance(members, schema)
        ordered = sorted(
            range(len(members)), key=lambda k: (-dists[k], members[k].eval_index)
        )
        for k in ordered[: pop_size - len(chosen)]:
            chosen.append(members[k])
        break
    return chosen
