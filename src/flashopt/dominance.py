"""Dominance predicates and non-dominated sorting.

Two families of comparison are used throughout the toolkit:

* binary domination: no worse on every objective and strictly better on at
  least one. Used to extract fronts of useful individuals.
* indicator dominance: the exponential quality indicator
  M(x, y) = sum_j -e^(w_j (x_j - y_j) / n) / n with w_j = -1 for minimized
  and +1 for maximized objectives; x dominates y when M(y, x) > M(x, y).
  Used to compare sway's poles, to rank flash's predictions and to count
  domination scores. One kernel, _class_wins, decides it for every pair of
  a set of vectors; the two-vector predicate is its smallest case.

Objective arguments may be ObjectiveVector instances or plain sequences of
floats; both are compared against the given schema.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import EvaluatedPoint, ObjectiveSchema, ObjectiveVector, Sense


@dataclass(frozen=True)
class FrontPartition:
    """Fronts of evaluation ids (eval_index), best front first.

    Front 0 is the non-dominated set; no point in a later front binary-
    dominates a point in an earlier one; within a front ids ascend.
    """

    fronts: tuple[tuple[int, ...], ...]


def _values(x) -> tuple[float, ...]:
    if isinstance(x, ObjectiveVector):
        return x.values
    return tuple(float(v) for v in x)


def _pair(x, y, schema: ObjectiveSchema) -> tuple[tuple[float, ...], tuple[float, ...]]:
    xs, ys = _values(x), _values(y)
    if len(xs) != len(schema) or len(ys) != len(schema):
        raise ValueError(
            f"objective length mismatch: {len(xs)}, {len(ys)} vs schema {len(schema)}"
        )
    return xs, ys


def binary_dominates(x, y, schema: ObjectiveSchema) -> bool:
    """True iff x is no worse than y everywhere and strictly better somewhere."""
    xs, ys = _pair(x, y, schema)
    strictly_better = False
    for xv, yv, sense in zip(xs, ys, schema.senses):
        if sense is Sense.MIN:
            if xv > yv:
                return False
            if xv < yv:
                strictly_better = True
        else:
            if xv < yv:
                return False
            if xv > yv:
                strictly_better = True
    return strictly_better


def indicator_value(x, y, schema: ObjectiveSchema) -> float:
    """The exponential indicator M(x, y); M(x, x) is always -1."""
    xs, ys = _pair(x, y, schema)
    n = len(schema)
    total = 0.0
    for xv, yv, w in zip(xs, ys, schema.weights):
        total += -math.exp(w * (xv - yv) / n)
    return total / n


def indicator_dominates(x, y, schema: ObjectiveSchema) -> bool:
    """Strict indicator dominance: M(y, x) > M(x, y)."""
    xs, ys = _pair(x, y, schema)
    return bool(_class_wins([xs, ys], schema)[0, 1])


def _matrix(vectors: Sequence, schema: ObjectiveSchema) -> np.ndarray:
    arr = np.array([_values(v) for v in vectors], dtype=float)
    if arr.shape[1] != len(schema):
        raise ValueError("objective length mismatch against schema")
    return arr


def oriented_matrix(vectors: Sequence, schema: ObjectiveSchema) -> np.ndarray:
    """Objective rows recast so that smaller is better on every axis."""
    signs = np.array([1.0 if s is Sense.MIN else -1.0 for s in schema.senses])
    return _matrix(vectors, schema) * signs


def nondominated_mask(oriented: np.ndarray) -> np.ndarray:
    """Boolean mask of rows not binary-dominated by any other row.

    Rows must be minimize-oriented. Equal rows never dominate each other,
    so duplicates survive together.
    """
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


def _distinct_classes(points: Sequence[EvaluatedPoint]):
    """Group points by exact objective vector, first-appearance order."""
    classes: dict[tuple[float, ...], list[int]] = {}
    for k, p in enumerate(points):
        classes.setdefault(p.objectives.values, []).append(k)
    keys = list(classes.keys())
    members = [classes[k] for k in keys]
    return keys, members


def nondominated_sort(
    points: Sequence[EvaluatedPoint], schema: ObjectiveSchema
) -> FrontPartition:
    """Fast non-dominated sort into fronts of eval_index ids.

    Dominance is computed once per distinct objective vector; duplicate
    vectors always land in the same front. Within a front, ids ascend.
    """
    if not points:
        raise ValueError("cannot sort an empty point list")
    ids = [p.eval_index for p in points]
    if len(set(ids)) != len(ids):
        raise ValueError("eval_index values must be unique")
    keys, members = _distinct_classes(points)
    d = len(keys)
    oriented = oriented_matrix(keys, schema)

    # d x d matrix: dominates[i, j] iff class i binary-dominates class j
    a = oriented[:, None, :]
    b = oriented[None, :, :]
    dominates = np.all(a <= b, axis=2) & np.any(a < b, axis=2)
    dom_count = dominates.sum(axis=0)

    remaining = np.ones(d, dtype=bool)
    fronts: list[tuple[int, ...]] = []
    while remaining.any():
        current = remaining & (dom_count == 0)
        if not current.any():
            raise AssertionError("dominance relation produced a cycle")
        front_ids = sorted(
            points[k].eval_index
            for ci in np.nonzero(current)[0]
            for k in members[ci]
        )
        fronts.append(tuple(front_ids))
        remaining &= ~current
        dom_count = dom_count - dominates[current].sum(axis=0)
    return FrontPartition(tuple(fronts))


def front0(
    points: Sequence[EvaluatedPoint], schema: ObjectiveSchema
) -> list[EvaluatedPoint]:
    """The non-dominated subset, ordered by ascending eval_index."""
    if not points:
        raise ValueError("cannot take the front of an empty point list")
    keys, members = _distinct_classes(points)
    mask = nondominated_mask(oriented_matrix(keys, schema))
    picked = sorted(
        (k for ci in np.nonzero(mask)[0] for k in members[ci]),
        key=lambda k: points[k].eval_index,
    )
    return [points[k] for k in picked]


def domination_scores(
    points: Sequence[EvaluatedPoint], schema: ObjectiveSchema
) -> list[int]:
    """Domination score of every point: how many other points of the list
    it indicator-dominates.

    Computed over distinct objective vectors: members of one class share a
    score, and equal vectors never dominate each other.
    """
    if not points:
        return []
    keys, members = _distinct_classes(points)
    counts = np.array([len(m) for m in members])
    wins = _class_wins(keys, schema)
    class_scores = (wins * counts[None, :]).sum(axis=1)
    out = [0] * len(points)
    for ci, ms in enumerate(members):
        for k in ms:
            out[k] = int(class_scores[ci])
    return out


def _class_wins(keys: Sequence[tuple[float, ...]], schema: ObjectiveSchema) -> np.ndarray:
    """wins[i, j] iff vector i indicator-dominates vector j.

    Computed as sum(e^delta) > sum(e^-delta) with delta = w (x_i - x_j) / m,
    both sides rescaled by a common factor when the exponents would
    overflow; rescaling by a positive constant cannot change the comparison.
    Only the forward sums are materialized: the backward sum of pair (i, j)
    is, float for float, the forward sum of (j, i), because delta is
    exactly antisymmetric and the rescale depends on |delta| only.
    """
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
