"""Minimal NSGA-II baseline: fast non-dominated sorting plus
crowding-distance truncation over a fixed generation budget.

Offspring come from binary tournaments, uniform crossover, and per-gene
mutation that resamples from the gene's valid value set. On tabular
problems every child is snapped to the nearest not-yet-evaluated pool row
(the nearest row of all, once every row is taken) so evaluations stay real
measurements; generative problems repair children through their own repair
hook. The evaluation budget is exact: pop_size * (generations + 1).

A generation's children are snapped as one block, in child order. A child
equal to a row after scaling is looked up by its row_keys bytes, since
that row is at distance 0; only the others scan, over the rows still open
when the block began. The lookup is exact while no two distinct scaled
values of a column are closer than 2^-500, checked once per table; below
that gap a squared difference can underflow to 0, and every child is
scanned.

Environmental selection sorts each population once, peeling fronts only
until they hold pop_size rows, and crowds all of those fronts in one call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ObjectiveSchema, Problem, ProblemKind, RunResult, min_max_scale, row_keys
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


def crowding_distance(y: np.ndarray, fronts: np.ndarray | None = None) -> np.ndarray:
    """Classic crowding of each row of an objective matrix among the rows
    with the same front label (one front when fronts is None): boundary
    rows get +inf, interior rows sum the range-normalized gaps between
    their sorted neighbors per objective.

    One stable lexsort per objective orders the rows by label, then by
    value, then by row, so each front is a run of the same positions in
    every objective. A row gets the float a call on its front alone would
    give, with the front's rows in the same relative order."""
    if len(y) == 0:
        raise ValueError("front must be nonempty")
    labels = np.zeros(len(y), dtype=int) if fronts is None else np.asarray(fronts)
    run = np.sort(labels)
    new = np.ones(len(y) + 1, dtype=bool)  # new[k]: sorted place k starts a front
    new[1:-1] = run[1:] != run[:-1]
    edge = new[:-1] | new[1:]
    first = np.flatnonzero(new)
    size = np.diff(first)
    lo, hi = np.repeat(first[:-1], size), np.repeat(first[1:] - 1, size)  # its front's ends
    dist = np.zeros(len(y))
    gap = np.zeros(len(y))
    for values in y.T:
        order = np.lexsort((values, labels))
        col = values[order]
        span = col[hi] - col[lo]
        np.subtract(col[2:], col[:-2], out=gap[1:-1])
        np.divide(gap, span, out=gap, where=span > 0)  # a zero-span front adds 0
        gap[edge] = math.inf  # inf + a finite gap stays inf, so boundary points stay inf
        dist[order] += gap
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
    distance 0, so it is the answer: the lowest-index open row with the
    child's row_keys, or the lowest-index row of any kind once the pool
    has run out. A stable argsort of the table's keys lists each key's
    rows in ascending order, found by two searchsorted calls and walked
    past taken rows. Distance 0 means an equal key only while no squared
    difference of two distinct values in a column underflows to 0, so the
    lookup is checked once here: sorted adjacent values of each column
    equal or at least 2^-500 apart (a NaN, which only an overflowing span
    makes, fails this). Otherwise every child is scanned.

    A child with no open row at distance 0 is scanned over the rows that
    were open when its block began: the block compacts their scaled
    columns once, in ascending row order, and a row taken earlier in the
    block gets distance inf by assignment, not by an added penalty, which
    would leave a NaN distance (from an overflowing span) at NaN, the
    first minimum. An open row's distance is the float a whole-table scan
    gives it. When every open distance is inf, the child takes the lowest
    open row, as a call with the child alone would. Once no row is open,
    the scan covers the whole table. Terms are added in numpy's own order
    (_ordered_sum), so each distance equals ((scaled - vec) ** 2).sum(axis=1).
    Children are scaled with min_max_scale, as the table is.
    """
    lo, hi = table.min(axis=0), table.max(axis=0)
    scaled = min_max_scale(table, lo, hi)
    cols = [np.ascontiguousarray(c) for c in scaled.T]
    terms = [np.empty(len(table)) for _ in cols]
    taken = np.zeros(len(table), dtype=bool)
    taken[list(used)] = True
    open_rows = len(table) - int(np.count_nonzero(taken))

    gaps = np.diff(np.sort(scaled, axis=0), axis=0)
    lookup = np.all((gaps == 0) | (gaps >= 2.0**-500))
    keys = row_keys(scaled)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]

    def distances(cols: list[np.ndarray], terms: list[np.ndarray], vec: list[float]):
        for col, term, v in zip(cols, terms, vec):
            np.square(np.subtract(col, v, out=term), out=term)
        return _ordered_sum(terms)

    def snap(children: np.ndarray) -> np.ndarray:
        nonlocal open_rows
        vecs = min_max_scale(np.asarray(children, dtype=float), lo, hi)
        first = last = np.zeros(len(vecs), dtype=int)
        if lookup:
            wanted = row_keys(vecs)
            first = np.searchsorted(keys, wanted)
            last = np.searchsorted(keys, wanted, side="right")
        if open_rows:
            open_idx = np.flatnonzero(~taken)
            open_cols = [col[open_idx] for col in cols]
            open_terms = [np.empty(len(open_idx)) for _ in cols]
            slot = np.cumsum(~taken) - 1  # an open row's place in open_idx
            gone = np.empty(len(open_idx), dtype=int)  # places taken in this block
        k = 0
        rows = []
        for vec, p, b in zip(vecs.tolist(), first.tolist(), last.tolist()):
            while open_rows and p < b and taken[order[p]]:
                p += 1
            if p < b:
                row = int(order[p])
            elif open_rows:
                dist = distances(open_cols, open_terms, vec)
                dist[gone[:k]] = np.inf
                at = dist.argmin()  # first minimum: lowest row
                if dist[at] == np.inf:  # all tied at inf: the lowest open row
                    at = taken[open_idx].argmin()
                row = int(open_idx[at])
            else:
                row = int(distances(cols, terms, vec).argmin())
            if not taken[row]:
                taken[row] = True
                open_rows -= 1
                gone[k] = slot[row]
                k += 1
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
    sort, peeled only as far as the fronts that fill the population, and
    one crowding call over those fronts: whole fronts first, the boundary
    front truncated by descending crowding distance (ties to the lowest
    row).

    Returns (chosen, rank, crowd): the chosen rows in selection order, and
    the front rank and crowding distance that each chosen row has within
    the survivors, indexed by row. The survivors keep their fronts when
    sorted alone, since every member of a front is dominated by some
    member of the previous, whole front; only a truncated front is crowded
    again, among its own survivors.
    """
    fronts = nondominated_sort(y, schema, enough=pop_size)
    sizes = [len(front) for front in fronts]
    members = np.concatenate(fronts)
    labels = np.repeat(np.arange(len(fronts)), sizes)
    rank = np.zeros(len(y), dtype=int)
    crowd = np.zeros(len(y))
    rank[members] = labels
    crowd[members] = dists = crowding_distance(y[members], labels)
    if len(members) <= pop_size:
        return members, rank, crowd
    whole = len(members) - sizes[-1]  # rows of the fronts before the last
    kept = np.argsort(-dists[whole:], kind="stable")[: pop_size - whole]
    boundary = members[whole:]
    survivors = boundary[np.sort(kept)]
    crowd[survivors] = crowding_distance(y[survivors])
    return np.concatenate([members[:whole], boundary[kept]]), rank, crowd
