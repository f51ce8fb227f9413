"""Shared fixtures and independent brute-force oracles.

The oracles below re-implement the comparison definitions directly from
their formulas, in plain Python, without touching the library's dominance
module. Tests freeze expected values computed by these oracles and compare
the library against them. reference_class_wins, reference_nondominated_mask
and reference_pick are the exceptions: the earlier numpy forms of the
indicator-wins kernel, of the non-dominated filter and of flash's pick,
kept as their exact references. So are reference_crowding_distance,
reference_rank_and_crowd and reference_select, NSGA-II's earlier
loop-form crowding and its sort-twice selection over the library's
nondominated_sort.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from flashopt import cart
from flashopt.dominance import nondominated_sort
from flashopt.core import (
    DecisionPoint,
    EvaluatedPoint,
    ObjectiveSchema,
    ObjectiveVector,
    Sense,
)


def brute_binary_dominates(x, y, senses) -> bool:
    """Direct re-statement: no worse everywhere, better somewhere."""
    no_worse = True
    better = False
    for xv, yv, sense in zip(x, y, senses):
        if sense == "min":
            if xv > yv:
                no_worse = False
            if xv < yv:
                better = True
        else:
            if xv < yv:
                no_worse = False
            if xv > yv:
                better = True
    return no_worse and better


def brute_indicator_m(x, y, senses) -> float:
    """Literal exponential indicator evaluation."""
    n = len(senses)
    total = 0.0
    for xv, yv, sense in zip(x, y, senses):
        w = -1.0 if sense == "min" else 1.0
        total += -math.exp(w * (xv - yv) / n) / n
    return total


def brute_indicator_dominates(x, y, senses) -> bool:
    return brute_indicator_m(y, x, senses) > brute_indicator_m(x, y, senses)


def brute_front_partition(vectors, senses) -> list[list[int]]:
    """O(n^2) pairwise partition into fronts of input positions."""
    n = len(vectors)
    remaining = set(range(n))
    fronts = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(
                brute_binary_dominates(vectors[j], vectors[i], senses)
                for j in remaining
                if j != i
            )
        ]
        assert front, "a finite strict partial order always has minimal elements"
        fronts.append(sorted(front))
        remaining -= set(front)
    return fronts


def brute_domination_scores(vectors, senses) -> list[int]:
    return [
        sum(
            1
            for j, other in enumerate(vectors)
            if j != i and brute_indicator_dominates(v, other, senses)
        )
        for i, v in enumerate(vectors)
    ]


def reference_class_wins(keys, schema) -> np.ndarray:
    """The indicator-wins kernel in its plain (d, d, m) form: wins[i, j] iff
    vector i indicator-dominates vector j. The library's tiled kernel must
    agree with it bit for bit; brute_indicator_dominates rounds near-ties
    differently and cannot serve as that oracle."""
    m = len(schema)
    signed = np.array(keys, dtype=float) * np.array(schema.weights, dtype=float)
    d = signed.shape[0]
    forward = np.empty((d, d))
    chunk = max(1, int(2_000_000 / max(1, d * m)))
    for start in range(0, d, chunk):
        stop = min(d, start + chunk)
        delta = (signed[start:stop, None, :] - signed[None, :, :]) / m
        shift = np.maximum(0.0, np.abs(delta).max(axis=2) - 700.0)[:, :, None]
        forward[start:stop] = np.exp(delta - shift).sum(axis=2)
    return forward.T < forward


def reference_nondominated_mask(oriented: np.ndarray) -> np.ndarray:
    """The non-dominated filter as a per-row elimination loop in input order:
    each surviving row removes every row it binary-dominates. Rows are
    minimize-oriented; equal rows never dominate each other."""
    n = oriented.shape[0]
    idx = np.arange(n)
    work = oriented
    i = 0
    while i < work.shape[0]:
        row = work[i]
        keep = ~(np.all(row <= work, axis=1) & np.any(row < work, axis=1))
        keep[i] = True
        if not keep.all():
            work = work[keep]
            idx = idx[keep]
            i = int(np.count_nonzero(keep[:i]))
        i += 1
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    return mask


def reference_pick(cand_matrix, cand_ids, models, schema) -> int:
    """Flash's pick in its earlier form: np.unique over every predicted row,
    the filter and the domination scores on the distinct classes, then a
    loop over all candidates for the lowest-id member of a winning class.
    The body is the library's former what_to_evaluate_next, with the two
    kernels it called replaced by their references above."""
    if len(cand_ids) == 0:
        raise ValueError("no candidates to choose from")
    if len(models) != len(schema):
        raise ValueError("need exactly one model per objective")
    preds = np.column_stack([cart.predict_many(m, cand_matrix) for m in models])
    classes, inverse = np.unique(preds, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)  # numpy 2.0 returns a column here
    weights = np.array(schema.weights, dtype=float)
    front_mask = reference_nondominated_mask(classes * -weights)

    front_classes = np.nonzero(front_mask)[0]
    keys = [tuple(classes[ci]) for ci in front_classes]
    counts = np.bincount(inverse, minlength=classes.shape[0])[front_classes]
    wins = reference_class_wins(keys, schema)
    scores = (wins * counts[None, :]).sum(axis=1)

    best_score = scores.max()
    winning = set(front_classes[np.nonzero(scores == best_score)[0]].tolist())
    best_row = None
    best_id = None
    for row, cls in enumerate(inverse.tolist()):
        if cls in winning and (best_id is None or cand_ids[row] < best_id):
            best_id = cand_ids[row]
            best_row = row
    return best_row


def reference_crowding_distance(front, schema) -> list[float]:
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


def reference_rank_and_crowd(population, schema):
    """Front rank and crowding of every point, by position, from a fresh
    sort of the population alone."""
    partition = nondominated_sort(population, schema)
    by_eval = {p.eval_index: k for k, p in enumerate(population)}
    ranks = [0] * len(population)
    crowd = [0.0] * len(population)
    for rank, front_ids in enumerate(partition.fronts):
        members = [by_eval[i] for i in front_ids]
        dists = reference_crowding_distance([population[k] for k in members], schema)
        for k, d in zip(members, dists):
            ranks[k] = rank
            crowd[k] = d
    return ranks, crowd


def reference_select(combined, pop_size, schema):
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
        dists = reference_crowding_distance(members, schema)
        ordered = sorted(
            range(len(members)), key=lambda k: (-dists[k], members[k].eval_index)
        )
        for k in ordered[: pop_size - len(chosen)]:
            chosen.append(members[k])
        break
    return chosen


def senses_of(schema: ObjectiveSchema) -> list[str]:
    return ["min" if s is Sense.MIN else "max" for s in schema.senses]


def make_points(vectors) -> list[EvaluatedPoint]:
    """Wrap raw objective tuples as evaluated points with ids 0, 1, ..."""
    return [
        EvaluatedPoint(
            DecisionPoint(i, (float(i),)), ObjectiveVector(tuple(map(float, v))), i
        )
        for i, v in enumerate(vectors)
    ]


@pytest.fixture
def min2() -> ObjectiveSchema:
    return ObjectiveSchema(("f1", "f2"), (Sense.MIN, Sense.MIN))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
