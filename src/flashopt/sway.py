"""Recursive bi-clustering baseline over a large random pool.

Each node picks two distant poles, evaluates both, and compares them with
indicator dominance. If one pole wins, only that pole's half (split at the
median projected position) is explored further; if neither wins, the whole
node is emitted as a leaf and every leaf member is evaluated. Pole
evaluations are cached, so a pole re-chosen deeper in the recursion costs
nothing extra; leaf emission always measures every member.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .core import Pool, Problem, RunResult, min_max_scale
from .dominance import _class_wins, front0


def two_distant_points(x: np.ndarray, ids: np.ndarray, seed: int) -> tuple[int, int] | None:
    """FastMap pole heuristic over the decision rows x, with ids ids:
    farthest from a seeded random anchor, then farthest from that.
    Distances are Euclidean over min-max normalized decision columns; ties
    go to the lowest id. Returns the rows of the two poles, or None when
    every row coincides in decision space."""
    if len(x) < 2:
        raise ValueError("need at least 2 items to pick poles")
    lo, hi = x.min(axis=0), x.max(axis=0)
    if np.all(hi == lo):
        return None
    normed = min_max_scale(x, lo, hi)
    anchor = random.Random(seed).randrange(len(x))

    def farthest_from(row: int) -> int:
        d = ((normed - normed[row]) ** 2).sum(axis=1)
        tied = np.flatnonzero(d == d.max())
        return int(tied[np.argmin(ids[tied])])

    west = farthest_from(anchor)
    return west, farthest_from(west)


def project(x: np.ndarray, west: int, east: int) -> np.ndarray:
    """Position of every row of x on the axis from row west to row east,
    by the cosine rule: pos = (a^2 + c^2 - b^2) / (2c) with a, b the
    distances to the poles and c the pole separation, over min-max
    normalized columns. west projects to 0 and east to c."""
    normed = min_max_scale(x, x.min(axis=0), x.max(axis=0))
    w = normed[west]
    e = normed[east]
    c = float(np.sqrt(((e - w) ** 2).sum()))
    if c == 0.0:
        raise ValueError("degenerate poles: west equals east in decision space")
    a2 = ((normed - w) ** 2).sum(axis=1)
    b2 = ((normed - e) ** 2).sum(axis=1)
    return (a2 + c * c - b2) / (2.0 * c)


def run_sway(problem: Problem, pool: Pool, seed: int = 0) -> RunResult:
    """Recursion over arrays of pool rows. Each evaluate call measures one
    pole or one whole leaf; the run's k-th evaluation is row k of the
    concatenated calls."""
    if len(pool) < 2:
        raise ValueError("pool must hold at least 2 points")
    enough = max(2, math.ceil(math.sqrt(len(pool))))  # the recursion floor
    schema = problem.schema
    rng = random.Random(seed)

    taken: list[np.ndarray] = []  # the pool rows of each evaluate call
    measured: list[np.ndarray] = []  # and their objective rows
    pole_cache: dict[int, np.ndarray] = {}

    def measure(rows: np.ndarray) -> np.ndarray:
        taken.append(rows)
        measured.append(problem.evaluate(pool.ids[rows], pool.x[rows]))
        return measured[-1]

    def eval_pole(row: int) -> np.ndarray:
        if row not in pole_cache:
            pole_cache[row] = measure(np.array([row]))[0]
        return pole_cache[row]

    def recurse(rows: np.ndarray) -> None:
        if len(rows) < enough:
            measure(rows)
            return
        node_seed = rng.randrange(2**32)
        x = pool.x[rows]
        pair = two_distant_points(x, pool.ids[rows], node_seed)
        if pair is None:
            measure(rows)
            return
        west, east = pair
        poles = np.array([eval_pole(int(rows[west])), eval_pole(int(rows[east]))])
        wins = _class_wins(poles, schema)
        go_west, go_east = bool(wins[0, 1]), bool(wins[1, 0])
        if not go_west and not go_east:
            measure(rows)
            return
        data = rows[np.lexsort((pool.ids[rows], project(x, west, east)))]
        mid = len(data) // 2
        if go_west:
            recurse(data[:mid])
        if go_east:
            recurse(data[mid:])

    recurse(np.arange(len(pool)))
    rows = np.concatenate(taken)
    y = np.concatenate(measured)
    return RunResult(pool.ids[rows], pool.x[rows], y, front0(y, schema))
