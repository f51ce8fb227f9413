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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DecisionPoint, EvaluatedPoint, Problem, RunResult, min_max_scale
from .dominance import _class_wins, _pair, front0


class DegenerateItems(ValueError):
    """All items coincide in decision space; no poles exist."""


@dataclass(frozen=True)
class SwayConfig:
    enough: int | None = None  # recursion floor; defaults to ceil(sqrt(pool size))
    seed: int = 0

    def __post_init__(self):
        if self.enough is not None and self.enough < 2:
            raise ValueError("enough must be at least 2")


def two_distant_points(
    items: Sequence[DecisionPoint], seed: int
) -> tuple[DecisionPoint, DecisionPoint]:
    """FastMap pole heuristic: farthest from a seeded random anchor, then
    farthest from that. Distances are Euclidean over min-max normalized
    decision columns; ties go to the lowest id."""
    items = list(items)
    if len(items) < 2:
        raise ValueError("need at least 2 items to pick poles")
    matrix = np.array([p.decisions for p in items], dtype=float)
    lo, hi = matrix.min(axis=0), matrix.max(axis=0)
    if np.all(hi == lo):
        raise DegenerateItems("all items identical in decision space")
    normed = min_max_scale(matrix, lo, hi)
    rng = random.Random(seed)
    anchor = rng.randrange(len(items))

    def farthest_from(row: int) -> int:
        d = ((normed - normed[row]) ** 2).sum(axis=1)
        top = d.max()
        tied = np.nonzero(d == top)[0]
        return min(tied, key=lambda k: items[k].id)

    west = farthest_from(anchor)
    east = farthest_from(west)
    return items[west], items[east]


def project(
    items: Sequence[DecisionPoint], west: DecisionPoint, east: DecisionPoint
) -> list[float]:
    """Position of every item on the west-east axis via the cosine rule:
    pos = (a^2 + c^2 - b^2) / (2c) with a, b the distances to the poles and
    c the pole separation. west projects to 0 and east to c."""
    items = list(items)
    matrix = np.array(
        [p.decisions for p in items] + [west.decisions, east.decisions], dtype=float
    )
    normed = min_max_scale(matrix, matrix.min(axis=0), matrix.max(axis=0))
    w = normed[-2]
    e = normed[-1]
    c = float(np.sqrt(((e - w) ** 2).sum()))
    if c == 0.0:
        raise ValueError("degenerate poles: west equals east in decision space")
    body = normed[:-2]
    a2 = ((body - w) ** 2).sum(axis=1)
    b2 = ((body - e) ** 2).sum(axis=1)
    return [float(v) for v in (a2 + c * c - b2) / (2.0 * c)]


def run_sway(problem: Problem, pool: Sequence[DecisionPoint], config: SwayConfig) -> RunResult:
    pool = list(pool)
    if len(pool) < 2:
        raise ValueError("pool must hold at least 2 points")
    enough = config.enough
    if enough is None:
        enough = max(2, math.ceil(math.sqrt(len(pool))))
    schema = problem.schema
    rng = random.Random(config.seed)

    pole_cache: dict[int, EvaluatedPoint] = {}
    evaluated: list[EvaluatedPoint] = []

    def eval_pole(p: DecisionPoint) -> EvaluatedPoint:
        if p.id not in pole_cache:
            ev = problem.evaluate(p)
            pole_cache[p.id] = ev
            evaluated.append(ev)
        return pole_cache[p.id]

    def emit(items: list[DecisionPoint]) -> None:
        for p in items:
            evaluated.append(problem.evaluate(p))

    def recurse(items: list[DecisionPoint]) -> None:
        if len(items) < enough:
            emit(items)
            return
        node_seed = rng.randrange(2**32)
        try:
            west, east = two_distant_points(items, node_seed)
        except DegenerateItems:
            emit(items)
            return
        ev_west = eval_pole(west)
        ev_east = eval_pole(east)
        wins = _class_wins(_pair(ev_west.objectives, ev_east.objectives, schema), schema)
        go_west, go_east = bool(wins[0, 1]), bool(wins[1, 0])
        if not go_west and not go_east:
            emit(items)
            return
        pos = project(items, west, east)
        order = sorted(range(len(items)), key=lambda k: (pos[k], items[k].id))
        data = [items[k] for k in order]
        mid = len(data) // 2
        if go_west:
            recurse(data[:mid])
        if go_east:
            recurse(data[mid:])

    recurse(pool)
    y = np.array([ev.objectives.values for ev in evaluated], dtype=float)
    best = [evaluated[k] for k in front0(y, schema)]
    return RunResult(evaluated=evaluated, best=best, evals=len(evaluated), trace=[])
