"""Minimal NSGA-II baseline: fast non-dominated sorting plus
crowding-distance truncation over a fixed generation budget.

Offspring come from binary tournaments, uniform crossover, and per-gene
mutation that resamples from the gene's valid value set. On tabular
problems every child is snapped to the nearest not-yet-evaluated pool row
(the nearest row of all, once every row is taken) so evaluations stay real
measurements; generative problems repair children through their own repair
hook. The evaluation budget is exact: pop_size * (generations + 1).

A generation's children are snapped as one block, in child order. A child
equal to a row after scaling is looked up by an integer key, since that
row is at distance 0; only the others scan the table. The lookup is exact
while no two distinct scaled values of a column are closer than 2^-500,
checked once per table; below that gap a squared difference can underflow
to 0, and every child is scanned.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ObjectiveSchema, Problem, ProblemKind, RunResult, min_max_scale
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


def crowding_distance(y: np.ndarray) -> np.ndarray:
    """Classic crowding of the rows of one front's objective matrix:
    boundary rows get +inf, interior rows sum the range-normalized gaps
    between their sorted neighbors per objective."""
    if len(y) == 0:
        raise ValueError("front must be nonempty")
    dist = np.zeros(len(y))
    for values in y.T:
        order = np.argsort(values, kind="stable")
        col = values[order]
        dist[order[[0, -1]]] = math.inf
        span = col[-1] - col[0]
        if span > 0:  # inf + a finite gap stays inf, so boundary points stay inf
            dist[order[1:-1]] += (col[2:] - col[:-2]) / span
    return dist


def pool_snapper(
    table: np.ndarray, used: Sequence[int]
) -> Callable[[np.ndarray], np.ndarray]:
    """Snap function over a decision table's rows: snap(children) takes a
    (k, d) block of decisions and returns k row ids in child order, each
    the row nearest to its child after min-max scaling, lowest index on
    ties, among rows not yet returned or in used, or among all rows once
    none is. A block gives the rows that k one-child calls would.

    Lookup, then scan. A row whose scaled decisions equal the child's is at
    distance 0, so it is the answer: the lowest-index open row with that
    key, or the lowest-index row of any kind once the pool has run out.
    Each column codes a value by its place among the column's sorted
    distinct values; a row's key is its codes in mixed radix, and a stable
    argsort of the keys lists each key's rows in ascending order, found by
    searchsorted. Distance 0 means an equal key only while no squared
    difference of two distinct values in a column underflows to 0, so the
    lookup is checked once here: adjacent distinct values of each column
    at least 2^-500 apart (a NaN, which only an overflowing span makes,
    fails this), and keys that fit in int64. Otherwise every child is
    scanned.

    A child with no open row at distance 0 is scanned: one contiguous
    array and one buffer per column; taken rows carry an inf penalty on
    the first term, and the terms are added in numpy's own order
    (_ordered_sum), so each distance equals ((scaled - vec) ** 2).sum(axis=1).
    Children are scaled with min_max_scale, as the table is.
    """
    lo, hi = table.min(axis=0), table.max(axis=0)
    cols = [np.ascontiguousarray(c) for c in min_max_scale(table, lo, hi).T]
    terms = [np.empty(len(table)) for _ in cols]
    penalty = np.zeros(len(table))
    penalty[list(used)] = np.inf
    open_rows = int(np.count_nonzero(penalty == 0))

    levels = []
    key = np.zeros(len(table), dtype=np.int64)
    for col in cols:
        values, codes = np.unique(col, return_inverse=True)
        levels.append(values)
        key = key * len(values) + codes
    lookup = (
        all(np.all(np.diff(values) >= 2.0**-500) for values in levels)
        and math.prod(map(len, levels)) < 2**63
    )
    order = np.argsort(key, kind="stable")
    keys = key[order]
    cursor = np.arange(len(order) + 1)  # per key: first place that may be open

    def distance_zero(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """[first, last) places in order of each child's key rows; empty on a miss."""
        key = np.zeros(len(vecs), dtype=np.int64)
        hit = np.ones(len(vecs), dtype=bool)
        for values, v in zip(levels, vecs.T):
            at = np.minimum(np.searchsorted(values, v), len(values) - 1)
            hit &= values[at] == v
            key = key * len(values) + at
        first = np.searchsorted(keys, key)
        return first, np.where(hit, np.searchsorted(keys, key, side="right"), first)

    def scan(vec: list[float]) -> int:
        for col, term, v in zip(cols, terms, vec):
            np.square(np.subtract(col, v, out=term), out=term)
        if open_rows:
            terms[0] += penalty
        return int(_ordered_sum(terms).argmin())  # first minimum: lowest row

    def snap(children: np.ndarray) -> np.ndarray:
        nonlocal open_rows
        vecs = min_max_scale(np.asarray(children, dtype=float), lo, hi)
        first = last = np.zeros(len(vecs), dtype=int)
        if lookup:
            first, last = distance_zero(vecs)
        rows = []
        for vec, a, b in zip(vecs.tolist(), first.tolist(), last.tolist()):
            if a < b and not open_rows:
                row = int(order[a])
            else:
                p = int(cursor[a])
                while p < b and penalty[order[p]]:
                    p += 1
                cursor[a] = p
                row = int(order[p]) if p < b else scan(vec)
            if penalty[row] == 0:
                penalty[row] = np.inf
                open_rows -= 1
            rows.append(row)
        return np.array(rows, dtype=int)

    return snap


def run_nsga2(problem: Problem, config: Nsga2Config) -> RunResult:
    """Row k of the run's decision matrix x and objective matrix y is its
    k-th evaluation, with id ids[k]: its pool row on tabular problems, k on
    generative ones. The population is an array of rows, in selection
    order; ascending rows are ascending evaluation order.

    A generation's children are bred first, then snapped or repaired and
    evaluated as one block. Only breeding draws from the rng, so the
    draws keep the order of child-by-child evaluation."""
    rng = random.Random(config.seed)
    arity = problem.decision_arity
    p_mut = 1.0 / arity
    if problem.gene_values is None and problem.x is None:
        raise ValueError(f"{problem.name}: no gene value sets available")
    gene_values = problem.gene_values or [sorted(set(col.tolist())) for col in problem.x.T]
    pop = config.pop_size
    total = pop * (config.generations + 1)
    ids = np.arange(total)
    x = np.empty((total, arity))
    y = np.empty((total, len(problem.schema)))

    start = problem.sample_pool(pop, rng)
    ids[:pop], x[:pop] = start.ids, start.x
    y[:pop] = problem.evaluate(ids[:pop], x[:pop])
    tabular = problem.kind is ProblemKind.TABULAR
    snap = pool_snapper(problem.x, start.ids) if tabular else None

    population = np.arange(pop)
    _, ranks, crowd = _select(y[:pop], pop, problem.schema)
    for first in range(pop, total, pop):
        parents = x[population].tolist()

        def tournament() -> list[float]:
            a = rng.randrange(pop)
            b = rng.randrange(pop)
            if ranks[a] != ranks[b]:
                a = a if ranks[a] < ranks[b] else b
            elif crowd[a] != crowd[b]:
                a = a if crowd[a] > crowd[b] else b
            return parents[a]

        children = []
        for _ in range(pop // 2):
            p1 = tournament()
            p2 = tournament()
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
                children.append(child)
        block = slice(first, first + pop)
        if tabular:
            ids[block] = snap(children)
            x[block] = problem.x[ids[block]]
        else:
            children = np.array(children)
            x[block] = children if problem.repairer is None else problem.repairer(children)
        y[block] = problem.evaluate(ids[block], x[block])
        combined = np.concatenate([np.sort(population), np.arange(first, first + pop)])
        chosen, rank_all, crowd_all = _select(y[combined], pop, problem.schema)
        population = combined[chosen]
        ranks = rank_all[chosen].tolist()
        crowd = crowd_all[chosen].tolist()

    final = np.sort(population)
    return RunResult(ids, x, y, final[front0(y[final], problem.schema)])


def _select(y: np.ndarray, pop_size: int, schema: ObjectiveSchema):
    """Environmental selection over the rows of y with one non-dominated
    sort: whole fronts first, the boundary front truncated by descending
    crowding distance (ties to the lowest row).

    Returns (chosen, rank, crowd): the chosen rows in selection order, and
    the front rank and crowding distance that each chosen row has within
    the survivors, indexed by row. The survivors keep their fronts when
    sorted alone, since every member of a front is dominated by some
    member of the previous, whole front; only a truncated front is crowded
    again, among its own survivors.
    """
    rank = np.zeros(len(y), dtype=int)
    crowd = np.zeros(len(y))
    chosen: list[int] = []
    for r, front in enumerate(nondominated_sort(y, schema)):
        members = np.array(front)
        dists = crowding_distance(y[members])
        room = pop_size - len(chosen)
        if len(members) > room:
            kept = np.argsort(-dists, kind="stable")[:room]
            chosen.extend(members[kept].tolist())
            members = members[np.sort(kept)]
            dists = crowding_distance(y[members])
        else:
            chosen.extend(front)
        rank[members] = r
        crowd[members] = dists
        if len(chosen) == pop_size:
            break
    return np.array(chosen), rank, crowd
