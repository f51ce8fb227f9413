"""Dominance predicates and non-dominated sorting.

Two families of comparison are used throughout the toolkit:

* binary domination: no worse on every objective and strictly better on at
  least one. Used to extract fronts of useful individuals.
* indicator dominance: the exponential quality indicator
  M(x, y) = sum_j -e^(w_j (x_j - y_j) / n) / n with w_j = -1 for minimized
  and +1 for maximized objectives; x dominates y when M(y, x) > M(x, y).
  Used to compare sway's poles, to rank flash's predictions and to count
  domination scores. One kernel, _class_wins, decides it for every pair of
  a set of vectors; the two-vector predicate is its smallest case. It
  works in row tiles over the upper triangle of the pair matrix, computes
  both directions of each pair from one set of per-objective differences,
  and adds each pair's m exponentials in the order numpy's own sum would,
  so its verdicts are bit-identical to the plain (d, d, m) formulation.

Objective arguments may be ObjectiveVector instances or plain sequences of
floats; both are compared against the given schema.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import EvaluatedPoint, ObjectiveSchema, ObjectiveVector, Sense

# Rows per tile of the indicator-wins kernel.
_TILE_ROWS = 32


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
    if len(vectors) == 0:
        return np.empty((0, len(schema)))
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
    class_scores = np.empty(len(keys), dtype=counts.dtype)
    for a in range(0, len(keys), _TILE_ROWS):
        block = slice(a, a + _TILE_ROWS)
        class_scores[block] = (wins[block] * counts).sum(axis=1)
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

    Works in tiles of _TILE_ROWS rows over the upper triangle, rows [a, b)
    against columns [a, d), with one 2-D buffer per objective. Each tile
    yields both directions: forward = sum_k e^(delta_k - shift) and
    backward = sum_k e^(-shift - delta_k). delta is exactly antisymmetric,
    the shift depends on |delta| only and IEEE addition commutes, so
    backward is, float for float, the forward sum of the reversed pair.
    The m terms are added in the order numpy's sum over a contiguous axis
    uses (_ordered_sum), so every verdict is bit-identical to summing a
    (d, d, m) array of exponentials along its last axis.
    """
    m = len(schema)
    signed = _matrix(keys, schema) * np.array(schema.weights, dtype=float)
    d = signed.shape[0]
    wins = np.zeros((d, d), dtype=bool)
    cols = np.ascontiguousarray(signed.T)
    rows = min(d, _TILE_ROWS)
    delta_buf = np.empty((m, rows * d))
    term_buf = np.empty((m, rows * d))
    shift_buf = np.empty(rows * d)
    for a in range(0, d, _TILE_ROWS):
        b = min(d, a + _TILE_ROWS)
        shape = (b - a, d - a)
        size = shape[0] * shape[1]
        delta = [delta_buf[k, :size].reshape(shape) for k in range(m)]
        term = [term_buf[k, :size].reshape(shape) for k in range(m)]
        shift = shift_buf[:size].reshape(shape)
        for k in range(m):
            np.subtract(cols[k][a:b, None], cols[k][None, a:], out=delta[k])
            np.divide(delta[k], m, out=delta[k])
        np.abs(delta[0], out=shift)
        for k in range(1, m):
            np.maximum(shift, np.abs(delta[k], out=term[k]), out=shift)
        np.subtract(shift, 700.0, out=shift)
        np.maximum(shift, 0.0, out=shift)
        for k in range(m):
            np.exp(np.subtract(delta[k], shift, out=term[k]), out=term[k])
        forward = _ordered_sum(term)
        np.negative(shift, out=shift)
        for k in range(m):
            np.exp(np.subtract(shift, delta[k], out=delta[k]), out=delta[k])
        backward = _ordered_sum(delta)
        np.less(backward, forward, out=wins[a:b, a:])
        wins[a:, a:b] |= (forward < backward).T
    return wins


def _ordered_sum(terms: list[np.ndarray]) -> np.ndarray:
    """Elementwise sum of equal-shape arrays, added in the order numpy's
    pairwise sum adds a contiguous run of len(terms) values: left to right
    below 8 terms; from 8 up, 8 running accumulators combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remainder left to right;
    above 128, the two halves (split at a multiple of 8) summed recursively.
    Sums into the arrays in place and returns the one holding the total.
    """
    n = len(terms)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        total = _ordered_sum(terms[:half])
        total += _ordered_sum(terms[half:])
        return total
    if n < 8:
        for t in terms[1:]:
            terms[0] += t
        return terms[0]
    r = terms[:8]
    tail = n - n % 8
    for i in range(8, tail, 8):
        for j in range(8):
            r[j] += terms[i + j]
    for lo, hi in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
        r[lo] += r[hi]
    for t in terms[tail:]:
        r[0] += t
    return r[0]
