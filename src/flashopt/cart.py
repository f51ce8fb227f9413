"""A from-scratch binary regression tree (CART style).

Greedy partitioning with axis-aligned splits chosen to maximize variance
reduction; leaves predict the mean target of their samples. Candidate
thresholds are midpoints between consecutive sorted distinct feature
values. Ties break to the lowest feature index, then the lowest
threshold, so fitting is deterministic.

The tree grows level by level over presorted columns (the breadth-first
growth of SLIQ, Mehta, Agrawal & Rissanen, EDBT 1996). Each column is
stable-argsorted once. Splitting a level keeps each segment's order, so
every node sees its rows sorted by each feature, ties in ascending row
order, without sorting again.

Within a level, the nodes with exactly the same row count n form one
batch: one split search runs over their (B, n) row block, so the numpy
calls are paid per batch, not per node. Blocks are never padded. A
node's total is the row sum of its n targets in ascending row order,
which is numpy's own sum of that node's targets, and its prediction is
total / n; every prefix sum and gain is the float a node-at-a-time
search would compute, so the tree is the same node for node. Gains are
computed only where the sorted feature value changes, the one place a
split can fall.

A fitted tree is six parallel node arrays, as in scikit-learn's tree_
(Pedregosa et al., JMLR 2011), its nodes numbered in the order they are
made: the root is node 0, and each split appends its left, then right child.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative slack so float noise in the sum-of-squares arithmetic never
# manufactures a zero-gain split.
_GAIN_EPS = 1e-12

# Row sides while a level is partitioned. A row's "goes right" flag is
# stored as its side, so _LEFT and _RIGHT must stay False and True.
_LEFT, _RIGHT, _DONE = 0, 1, 2


@dataclass(frozen=True, eq=False)
class RegressionTree:
    """A fitted tree as parallel node arrays, node 0 the root. Node k
    sends rows with feature[k] <= threshold[k] to left[k], the rest to
    right[k]; it is a leaf where left[k] < 0 (feature -1, threshold NaN).
    n[k] training rows reached it and prediction[k] is their mean target."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    n: np.ndarray
    prediction: np.ndarray
    feature_count: int


def fit_arrays(x: np.ndarray, y: np.ndarray) -> RegressionTree | tuple[RegressionTree, ...]:
    """Fit a tree on n decision rows x (n-by-f) and their targets y: one
    tree for a length-n y, and for an n-by-m y a tuple of m trees, tree j
    fitted on column j.

    The m trees grow together as one forest: tree j's rows are the flat
    targets j*n .. j*n + n - 1, the roots are the first m nodes, and the
    one stable argsort of x serves every tree. Same-size nodes of all the
    trees share a batch, and each node's split is computed on its own row
    of the batch, so every tree is the one a fit on its column alone grows,
    node for node. Its nodes keep their order of creation, which may differ
    from that lone fit's where nodes of other trees share a level.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim not in (1, 2) or x.shape[0] != y.shape[0] or 0 in y.shape[1:]:
        raise ValueError("x must be n-by-f and y length n or n-by-m")
    if x.shape[0] == 0:
        raise ValueError("cannot fit a tree on zero rows")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    if not np.all(np.isfinite(x)):
        # A NaN threshold sends every row right, so splitting would never end.
        raise ValueError("decisions must be finite")

    n_rows, f = x.shape
    targets = y.T.ravel()  # tree j's targets at j*n_rows ..
    m = targets.size // n_rows
    span = np.arange(n_rows)
    # The node arrays of the forest, numbered in the order the nodes are
    # made; size and tree are n and the tree of each node, and the other
    # five catch up with them as each level starts.
    feature, threshold, left, right, prediction = [], [], [], [], []
    size, tree = [n_rows] * m, list(range(m))
    # The frontier: its nodes, and their rows as one segment per node, in
    # ascending order in `rows`. `ords` holds each segment sorted by each
    # feature, and `xs` and `ys` the decisions and targets in that order.
    nodes = list(range(m))
    rows = np.arange(m * n_rows)
    ords = np.argsort(x.T, axis=1, kind="stable")
    xs = np.take_along_axis(x.T, ords, axis=1)
    if m > 1:
        ords = np.concatenate([ords + j * n_rows for j in range(m)], axis=1)
        xs = np.tile(xs, m)
    ys = targets[ords]
    side = np.empty(m * n_rows, dtype=np.int8)
    while True:
        for a, v in zip((feature, threshold, left, right, prediction), (-1, np.nan, -1, -1, 0.0)):
            a += [v] * (len(size) - len(a))
        side[rows] = _DONE
        batches: dict[int, tuple[list[int], list[int]]] = {}
        start = 0
        for s, node in enumerate(nodes):
            segs, starts = batches.setdefault(size[node], ([], []))
            segs.append(s)
            starts.append(start)
            start += size[node]
        for n, (segs, starts) in batches.items():
            cols = np.add.outer(starts, span[:n])
            ysub = targets[rows[cols]]
            total = ysub.sum(axis=1)
            for s, mean in zip(segs, (total / n).tolist()):
                prediction[nodes[s]] = mean
            if n == 1 or f == 0:  # no candidate split
                continue
            live = np.flatnonzero((ysub != ysub[:, :1]).any(axis=1))
            if live.size < len(segs):  # constant targets make a leaf
                if live.size == 0:
                    continue
                segs = [segs[k] for k in live.tolist()]
                cols, ysub, total = cols[live], ysub[live], total[live]
            feats, pos, thresholds = _best_splits(xs[:, cols], ys[:, cols], ysub, total)
            # The first pos + 1 rows in the chosen feature's order go left.
            side[ords[feats[:, None], cols]] = span[:n] > pos[:, None]
            stay = []
            for k, (s, feat, p, thr) in enumerate(
                zip(segs, feats.tolist(), pos.tolist(), thresholds)
            ):
                if thr is None:
                    stay.append(k)
                    continue
                node = nodes[s]
                feature[node], threshold[node] = feat, thr
                left[node], right[node] = len(size), len(size) + 1
                size += [p + 1, n - p - 1]
                tree += [tree[node]] * 2
            if stay:
                side[rows[cols[stay]]] = _DONE
        split = [node for node in nodes if left[node] >= 0]
        if not split:
            break
        # Children in parent order: every left child, then every right
        # child. Each feature row holds the same rows, so the flat indices
        # of either side reshape to (f, rows), in each segment's order.
        nodes = [left[node] for node in split] + [right[node] for node in split]
        on = side[ords]
        take = np.concatenate(
            [np.flatnonzero(on == to).reshape(f, -1) for to in (_LEFT, _RIGHT)], axis=1
        )
        ords, xs, ys = (a.ravel()[take] for a in (ords, xs, ys))
        on = side[rows]
        rows = np.concatenate([rows[on == to] for to in (_LEFT, _RIGHT)])
    arrays = [np.array(a) for a in (feature, threshold, left, right, size, prediction)]
    if y.ndim == 1:
        return RegressionTree(*arrays, feature_count=f)
    # Each tree's nodes in forest order, renumbered from 0.
    tree = np.array(tree)
    local = np.empty_like(tree)
    trees = []
    for j in range(m):
        ids = np.flatnonzero(tree == j)
        local[ids] = np.arange(ids.size)
        kept = [a[ids] for a in arrays]
        for child in kept[2:4]:
            child[child >= 0] = local[child[child >= 0]]
        trees.append(RegressionTree(*kept, feature_count=f))
    return tuple(trees)


def _best_splits(xs, ys, ysub, total):
    """Best split of each of B nodes with n rows each. xs and ys (f, B, n)
    hold each node's decisions and targets sorted by each feature, ysub
    (B, n) its targets in ascending row order and total (B,) their sums.

    A split can only fall between two distinct values, so gains are
    computed at those candidate positions only: from the full prefix sums,
    with the same operations, so each is the float a gain over every
    position would be. They are laid into a (B, f, n-1) array of -inf, and
    a feature-major argmax per node keeps the tie-break order of lowest
    feature, then lowest threshold. Returns each node's feature and split
    position pos (rows 0..pos of the sorted feature go left), and a list of
    thresholds, None where the node has no candidate or its best gain is
    within _GAIN_EPS of nothing.
    """
    f, b, n = xs.shape
    total_sq = (ysub * ysub).sum(axis=1)
    parent_sse = total_sq - total * total / n

    # (B, n, f) views: a block gathered as xs[:, cols] is laid out in that
    # order, so ravel() then copies nothing.
    xt = xs.transpose(1, 2, 0)
    yt = ys.transpose(1, 2, 0)[:, :-1]
    sl = np.cumsum(yt, axis=1).ravel()
    ql = np.cumsum(yt * yt, axis=1).ravel()
    # The candidates, as flat indices into (B, n-1, f); a lone node's
    # indices need no node part.
    c = np.flatnonzero(xt[:, 1:] != xt[:, :-1])
    node, at = np.divmod(c, (n - 1) * f) if b > 1 else (0, c)
    pos, feat = np.divmod(at, f)
    nl = pos + 1.0
    nr = float(n) - nl
    # gain = parent_sse - ((ql - sl*sl/nl) + (qr - sr*sr/nr)), operation
    # for operation as over the whole block.
    sl = sl[c]
    ql = ql[c]
    gain = sl * sl
    gain /= nl
    np.subtract(ql, gain, out=gain)
    sr = np.subtract(total[node], sl, out=sl)
    sr *= sr
    sr /= nr
    qr = np.subtract(total_sq[node], ql, out=ql)
    np.subtract(qr, sr, out=sr)
    gain += sr
    np.subtract(parent_sse[node], gain, out=gain)
    # Each node's gains feature-major, -inf where no split can fall.
    gains = np.full((b, f, n - 1), -np.inf)
    gains[node, feat, pos] = gain

    k = gains.reshape(b, -1).argmax(axis=1)
    feature, pos = np.divmod(k, n - 1)
    node = np.arange(b)
    thresholds = []
    for best, sse, lo, hi in zip(
        gains[node, feature, pos].tolist(),
        parent_sse.tolist(),
        xs[feature, node, pos].tolist(),
        xs[feature, node, pos + 1].tolist(),
    ):
        if best <= _GAIN_EPS * max(1.0, sse):
            thresholds.append(None)
            continue
        threshold = 0.5 * (lo + hi)
        if threshold >= hi:  # adjacent floats can collapse the midpoint
            threshold = lo
        thresholds.append(threshold)
    return feature, pos, thresholds


def apply(tree: RegressionTree, x: np.ndarray) -> np.ndarray:
    """Route every row of an n-by-f array to its leaf; return the leaf numbers.

    Each node reads one column of x, so a column-major x routes fastest."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != tree.feature_count:
        raise ValueError("x must be n-by-feature_count")
    feature, threshold, left, right = (
        a.tolist() for a in (tree.feature, tree.threshold, tree.left, tree.right)
    )
    out = np.empty(x.shape[0], dtype=np.intp)
    stack = [(0, np.arange(x.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if left[node] < 0:
            out[rows] = node
            continue
        mask = x[:, feature[node]].take(rows) <= threshold[node]
        stack.append((left[node], rows.compress(mask)))
        stack.append((right[node], rows.compress(~mask)))
    return out


def predict_many(tree: RegressionTree, x: np.ndarray) -> np.ndarray:
    """Route every row of an n-by-f array to its leaf; return the leaf means."""
    return tree.prediction[apply(tree, x)]
