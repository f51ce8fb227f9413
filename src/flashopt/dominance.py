"""Dominance predicates and non-dominated sorting.

Two families of comparison are used throughout the toolkit:

* binary domination: no worse on every objective and strictly better on at
  least one. Used to extract fronts of useful individuals.
* indicator dominance: the exponential quality indicator
  M(x, y) = sum_j -e^(w_j (x_j - y_j) / n) / n with w_j = -1 for minimized
  and +1 for maximized objectives; x dominates y when M(y, x) > M(x, y).
  Used to compare sway's poles, to rank flash's predictions and to count
  domination scores. One kernel, _win_tiles, decides it for every pair of
  a set of vectors; _class_wins gathers its verdicts into a matrix and
  _class_scores into scores, and the two-vector predicate is its smallest
  case. It works in row tiles over the upper triangle of the pair matrix,
  computes both directions of each pair from one set of per-objective
  differences, and adds each pair's m exponentials in the order numpy's
  own sum would, so its verdicts are bit-identical to the plain (d, d, m)
  formulation. A tile whose key ranges rule out overflow skips the
  exponent shift. On large sets _class_scores deals its tiles to one
  thread per CPU the process may use; the scores are exact sums, so they
  are the same for any number of CPUs.

Set-level kernels take one (n, m) objective matrix, row k the k-th
point of the set, and answer in row indices. The pairwise predicates take
two sequences of floats, each as long as the schema.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import ObjectiveSchema, Sense, row_keys

# Rows per tile of the indicator-wins kernel. A tile holds its rows
# against every column to the right, so fewer rows keep its buffers
# closer to cache size on thousands of vectors; more rows mean fewer
# tiles, and fewer calls, on small sets.
_TILE_ROWS = 16

# Fewest wins tiles that _class_scores spreads over threads. Two threads
# contend for the GIL between array passes, and on two CPUs they only beat
# one thread from about 128 tiles (2,048 vectors of 3 objectives) up; the
# tabular trees and flash's fronts take one to a few tiles.
_PARALLEL_TILES = 128


def _pair(x, y, schema: ObjectiveSchema) -> tuple[tuple[float, ...], tuple[float, ...]]:
    xs, ys = tuple(map(float, x)), tuple(map(float, y))
    if len(xs) != len(schema) or len(ys) != len(schema):
        raise ValueError(
            f"objective length mismatch: {len(xs)}, {len(ys)} vs schema {len(schema)}"
        )
    if not all(map(math.isfinite, xs + ys)):
        raise ValueError(f"non-finite objective value in {xs} vs {ys}")
    return xs, ys


def binary_dominates(x, y, schema: ObjectiveSchema) -> bool:
    """True iff x is no worse than y everywhere and strictly better somewhere:
    then, and only then, the front of the pair is x alone."""
    return front0(_pair(x, y, schema), schema).tolist() == [0]


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


def _matrix(y, schema: ObjectiveSchema) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[1] != len(schema):
        raise ValueError("objective length mismatch against schema")
    return y


def oriented_matrix(y, schema: ObjectiveSchema) -> np.ndarray:
    """Objective rows recast so that smaller is better on every axis."""
    signs = np.array([1.0 if s is Sense.MIN else -1.0 for s in schema.senses])
    return _matrix(y, schema) * signs


def nondominated_mask(oriented: np.ndarray) -> np.ndarray:
    """Boolean mask of rows not binary-dominated by any other row.

    Rows must be minimize-oriented. Equal rows never dominate each other,
    so duplicates survive together.

    The rows are first sorted lexicographically, column 0 first. A row
    that dominates another is no larger on any column and smaller on one,
    so it sorts strictly before the row it dominates. Each pass takes the
    first remaining row, which is on the front: only an earlier row could
    dominate it, and every earlier row was either taken by a previous
    pass, which would have removed it, or removed by a taken row, which
    then dominates it too. The pass removes every row that the first row
    is no larger than on all columns: the rows it dominates, and its
    copies, which are on the front with it (a row dominating a copy would
    dominate the first row too). The loop runs once per distinct front
    vector, so the cost is O(|distinct front| * n * m) on n rows of m
    objectives, plus the O(n log n * m) sort.
    """
    order = np.lexsort(oriented.T[::-1])
    work = oriented[order]
    mask = np.zeros(oriented.shape[0], dtype=bool)
    while work.shape[0]:
        covered = np.all(work[0] <= work, axis=1)
        mask[order[covered & np.all(work[0] == work, axis=1)]] = True
        work, order = work[~covered], order[~covered]
    return mask


def nondominated_sort(y, schema: ObjectiveSchema, enough: int | None = None
                      ) -> tuple[tuple[int, ...], ...]:
    """Fast non-dominated sort of the rows of y into fronts of row indices,
    best front first.

    Front 0 is the non-dominated set; no row in a later front binary-
    dominates a row in an earlier one; within a front rows ascend.
    Dominance is computed once per distinct objective vector; duplicate
    vectors always land in the same front. With enough, peeling stops once
    the fronts listed hold at least enough rows, and only those leading
    fronts, a prefix of the full sort, are returned.

    Equal rows are grouped by np.unique on their row_keys, in byte order:
    fronts are listed per row, so the order of the vectors does not
    matter. The vectors are distinct, so one that is no worse than another
    on every column is better on some column: dominance is the <=
    conjunction with its diagonal cleared. The fronts are peeled into one
    rank per distinct vector: a vector whose dominators are all ranked
    takes the next rank. Binary dominance is a strict partial order, so
    every vector gets one until enough rows are listed. A stable argsort
    of the rows' ranks then lists the fronts, each in ascending row order.
    """
    y = _matrix(y, schema)
    if len(y) == 0:
        raise ValueError("cannot sort an empty set")
    _, first, inverse, size = np.unique(
        row_keys(y), return_index=True, return_inverse=True, return_counts=True
    )
    oriented = oriented_matrix(y[first], schema)
    d = len(oriented)

    # d x d matrix: dominates[i, j] iff vector i binary-dominates vector j
    dominates = oriented[:, 0, None] <= oriented[None, :, 0]
    for col in oriented.T[1:]:
        dominates &= col[:, None] <= col[None, :]
    np.fill_diagonal(dominates, False)

    rank = np.full(d, d)  # d: not listed
    count = dominates.sum(axis=0)  # unranked dominators; -1 once ranked
    current = count == 0
    stop = len(y) if enough is None else min(enough, len(y))
    listed = r = 0
    while listed < stop:
        rank[current] = r
        listed += int(size[current].sum())
        count -= dominates[current].sum(axis=0)
        count[current] = -1
        current = count == 0
        r += 1
    row_rank = rank[inverse]
    ends = np.cumsum(np.bincount(row_rank)[:r]).tolist()
    members = np.argsort(row_rank, kind="stable").tolist()
    return tuple(tuple(members[a:b]) for a, b in zip([0] + ends, ends))


def front0(y, schema: ObjectiveSchema) -> np.ndarray:
    """Ascending indices of the non-dominated rows of y."""
    y = _matrix(y, schema)
    if len(y) == 0:
        raise ValueError("cannot take the front of an empty set")
    return np.flatnonzero(nondominated_mask(oriented_matrix(y, schema)))


def domination_scores(y, schema: ObjectiveSchema) -> np.ndarray:
    """Domination score of every row: how many other rows of y it
    indicator-dominates.

    Rows are grouped by exact objective vector; _class_scores scores each
    distinct vector once, and every member of a group shares its score.
    Equal vectors never dominate each other.
    """
    y = _matrix(y, schema)
    keys, inverse, counts = np.unique(y, axis=0, return_inverse=True, return_counts=True)
    return _class_scores(keys, counts, schema)[inverse.reshape(-1)]


def _class_scores(keys, counts: np.ndarray, schema: ObjectiveSchema) -> np.ndarray:
    """Domination score of each distinct vector: counts[j] summed over the
    vectors j it indicator-dominates; counts[j] is how many points share j.

    Each tile of _win_tiles adds its row wins into rows [a, b) and its
    column wins into columns [a, d), so no d x d matrix is built. The
    pairs inside the tile are already in beats, so they are cleared from
    beaten first. _workers(tiles) threads, each with buffers allocated
    here, take the tiles in ascending order from one shared iterator, so a
    thread whose CPU is busy with another process takes fewer. Each sums
    its wins as 0/1 floats times the counts into its own array. Every
    partial sum is an integer below 2^53, so each float sum is exact
    whatever its order, and the total is the same whichever thread took
    which tile, for any worker count.
    """
    signed = -oriented_matrix(keys, schema)  # larger is better
    d = len(signed)
    starts = range(0, d, _TILE_ROWS)
    workers = _workers(len(starts))
    weights = counts.astype(float)
    parts = [np.zeros(d) for _ in range(workers)]
    buffers = [_tile_buffers(signed) for _ in range(workers)]
    wide = [np.empty(min(d, _TILE_ROWS) * d) for _ in range(workers)]
    pending = iter(starts)
    lock = threading.Lock()

    def next_start() -> int | None:
        with lock:
            return next(pending, None)

    def share(w: int) -> None:
        scores = parts[w]
        for a, b, beats, beaten in _win_tiles(signed, iter(next_start, None), buffers[w]):
            beaten[:, : b - a] = False
            flags = wide[w][: beats.size].reshape(beats.shape)
            np.copyto(flags, beats)
            scores[a:b] += flags @ weights[a:]
            np.copyto(flags, beaten)
            scores[a:] += weights[a:b] @ flags

    if workers == 1:
        share(0)
    else:  # share(0) here; numpy releases the GIL inside each array pass
        with ThreadPoolExecutor(workers - 1) as pool:
            rest = pool.map(share, range(1, workers))
            share(0)
            list(rest)  # raises a worker's exception; the with joins the pool
    for part in parts[1:]:
        parts[0] += part
    return parts[0].astype(counts.dtype)


def _workers(tiles: int) -> int:
    """Threads to score `tiles` wins tiles on: one below _PARALLEL_TILES,
    else every CPU this process may run on, at most one per tile."""
    if tiles < _PARALLEL_TILES:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, tiles)


def _class_wins(keys, schema: ObjectiveSchema) -> np.ndarray:
    """wins[i, j] iff vector i indicator-dominates vector j."""
    signed = -oriented_matrix(keys, schema)  # larger is better
    d = len(signed)
    wins = np.zeros((d, d), dtype=bool)
    tiles = _win_tiles(signed, range(0, d, _TILE_ROWS), _tile_buffers(signed))
    for a, b, beats, beaten in tiles:
        wins[a:b, a:] = beats
        wins[a:, a:b] |= beaten.T
    return wins


def _tile_buffers(signed: np.ndarray) -> tuple[np.ndarray, ...]:
    """Scratch arrays for one thread's tiles of _win_tiles over signed."""
    d, m = signed.shape
    size = min(d, _TILE_ROWS) * d
    return (np.empty((m, size)), np.empty((m, size)), np.empty(size),
            np.empty(size, dtype=bool), np.empty(size, dtype=bool))


def _win_tiles(signed: np.ndarray, starts, buffers: tuple[np.ndarray, ...]):
    """Indicator wins among the rows of signed, one tile at a time.

    Yields (a, b, beats, beaten) for rows [a, b) against columns [a, d),
    for each tile start a in starts: beats[i, j] iff row a+i indicator-
    dominates row a+j, and beaten[i, j] iff row a+j indicator-dominates
    row a+i. Both arrays live in buffers (from _tile_buffers) and are
    overwritten by the next tile.

    Computed as sum(e^delta) > sum(e^-delta) with delta = (x_i - x_j) / m
    on the signed rows, both sides rescaled by a common factor when the
    exponents would overflow; rescaling by a positive constant cannot
    change the comparison.

    Tiles hold _TILE_ROWS rows over the upper triangle, with one 2-D
    buffer per objective. Each tile yields both directions: forward =
    sum_k e^(delta_k - shift) and backward = sum_k e^(-shift - delta_k),
    with shift = max(max_k |delta_k| - 700, 0). delta is exactly
    antisymmetric, the shift depends on |delta| only and IEEE addition
    commutes, so backward is, float for float, the forward sum of the
    reversed pair. The m terms are added in the order numpy's sum over a
    contiguous axis uses (_ordered_sum), so every verdict is bit-identical
    to summing a (d, d, m) array of exponentials along its last axis.

    A tile skips the shift when every column's range over rows [a, d),
    divided by m, is at most 700. Rounding is monotonic, so no computed
    |delta| in the tile exceeds that bound; the shift is then +0.0, and
    e^(delta - 0.0) and e^(-0.0 - delta) are e^delta and e^-delta exactly.
    A NaN or infinite key fails the test and takes the shift.
    """
    d, m = signed.shape
    cols = np.ascontiguousarray(signed.T)
    suffix = signed[::-1]
    spans = np.maximum.accumulate(suffix)[::-1] - np.minimum.accumulate(suffix)[::-1]
    shift_free = np.all(spans / m <= 700.0, axis=1)
    delta_buf, term_buf, shift_buf, beats_buf, beaten_buf = buffers
    for a in starts:
        b = min(d, a + _TILE_ROWS)
        shape = (b - a, d - a)
        size = shape[0] * shape[1]
        delta = [delta_buf[k, :size].reshape(shape) for k in range(m)]
        term = [term_buf[k, :size].reshape(shape) for k in range(m)]
        for k in range(m):
            np.subtract(cols[k][a:b, None], cols[k][None, a:], out=delta[k])
            np.divide(delta[k], m, out=delta[k])
        if shift_free[a]:
            for k in range(m):
                np.exp(delta[k], out=term[k])
            forward = _ordered_sum(term)
            for k in range(m):
                np.exp(np.negative(delta[k], out=delta[k]), out=delta[k])
        else:
            shift = shift_buf[:size].reshape(shape)
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
        beats = np.less(backward, forward, out=beats_buf[:size].reshape(shape))
        beaten = np.less(forward, backward, out=beaten_buf[:size].reshape(shape))
        yield a, b, beats, beaten


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
