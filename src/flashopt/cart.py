"""A from-scratch binary regression tree (CART style).

Greedy recursive partitioning with axis-aligned splits chosen to maximize
variance reduction; leaves predict the mean target of their samples.
Candidate thresholds are midpoints between consecutive sorted distinct
feature values. Ties break to the lowest feature index, then the lowest
threshold, so fitting is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative slack so float noise in the sum-of-squares arithmetic never
# manufactures a zero-gain split.
_GAIN_EPS = 1e-12


@dataclass
class TreeNode:
    """Internal node (feature/threshold/left/right set) or leaf (prediction).

    Rows with feature value <= threshold go left, the rest go right.
    n is the number of training samples that reached the node.
    """

    n: int
    prediction: float
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class RegressionTree:
    root: TreeNode
    feature_count: int
    sample_count: int


@dataclass(frozen=True)
class TreeParams:
    min_split: int = 2
    min_leaf: int = 1
    max_depth: int | None = None


def fit_arrays(x: np.ndarray, y: np.ndarray, params: TreeParams = TreeParams()) -> RegressionTree:
    """Fit a tree on n decision rows x (n-by-f) and their targets y (length n)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ValueError("x must be n-by-f and y length n")
    if x.shape[0] == 0:
        raise ValueError("cannot fit a tree on zero rows")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    if not np.all(np.isfinite(x)):
        # A NaN threshold sends every row right, so splitting would never end.
        raise ValueError("decisions must be finite")

    root = TreeNode(n=int(y.size), prediction=float(y.mean()))
    # Iterative expansion; recursion would overflow on tall degenerate trees.
    stack: list[tuple[TreeNode, np.ndarray, int]] = [(root, np.arange(y.size), 0)]
    while stack:
        node, idx, depth = stack.pop()
        split = _best_split(x, y, idx, params, depth)
        if split is None:
            continue
        feature, threshold = split
        left_mask = x[idx, feature] <= threshold
        left_idx = idx[left_mask]
        right_idx = idx[~left_mask]
        node.feature = feature
        node.threshold = threshold
        node.left = TreeNode(n=int(left_idx.size), prediction=float(y[left_idx].mean()))
        node.right = TreeNode(n=int(right_idx.size), prediction=float(y[right_idx].mean()))
        stack.append((node.left, left_idx, depth + 1))
        stack.append((node.right, right_idx, depth + 1))
    return RegressionTree(root=root, feature_count=x.shape[1], sample_count=int(y.size))


def _best_split(x, y, idx, params: TreeParams, depth: int):
    """One pass over all features at once: gains for every (position,
    feature) candidate land in one matrix, and the feature-major argmax
    keeps the tie-break order of lowest feature, then lowest threshold."""
    n = idx.size
    if n < params.min_split:
        return None
    if params.max_depth is not None and depth >= params.max_depth:
        return None
    ysub = y[idx]
    if np.all(ysub == ysub[0]):
        return None
    total = ysub.sum()
    total_sq = (ysub * ysub).sum()
    parent_sse = total_sq - total * total / n

    sub = x[idx]
    order = np.argsort(sub, axis=0, kind="stable")
    xs = np.take_along_axis(sub, order, axis=0)
    ys = ysub[order]

    positions = np.arange(1, n)
    valid = xs[1:] != xs[:-1]  # split only between distinct sorted values
    valid &= (
        (positions >= params.min_leaf) & (positions <= n - params.min_leaf)
    )[:, None]
    if not valid.any():
        return None

    csum = np.cumsum(ys, axis=0)
    csq = np.cumsum(ys * ys, axis=0)
    nl = positions.astype(float)[:, None]
    sl = csum[:-1]
    ql = csq[:-1]
    sse_left = ql - sl * sl / nl
    nr = float(n) - nl
    sr = total - sl
    qr = total_sq - ql
    sse_right = qr - sr * sr / nr
    gain = parent_sse - (sse_left + sse_right)
    gain[~valid] = -np.inf

    flat = gain.T.reshape(-1)
    k = int(np.argmax(flat))
    if flat[k] <= _GAIN_EPS * max(1.0, parent_sse):
        return None
    feature, pos = divmod(k, n - 1)
    pos += 1
    lo, hi = xs[pos - 1, feature], xs[pos, feature]
    threshold = 0.5 * (lo + hi)
    if threshold >= hi:  # adjacent floats can collapse the midpoint
        threshold = lo
    return int(feature), float(threshold)


def predict_many(tree: RegressionTree, x: np.ndarray) -> np.ndarray:
    """Route every row of an n-by-f array to its leaf; return the leaf means."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != tree.feature_count:
        raise ValueError("x must be n-by-feature_count")
    out = np.empty(x.shape[0], dtype=float)
    stack: list[tuple[TreeNode, np.ndarray]] = [(tree.root, np.arange(x.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if node.is_leaf:
            out[rows] = node.prediction
            continue
        mask = x[rows, node.feature] <= node.threshold
        stack.append((node.left, rows[mask]))
        stack.append((node.right, rows[~mask]))
    return out


def tree_size(tree: RegressionTree) -> tuple[int, int]:
    """(total node count, leaf count); always nodes = 2 * leaves - 1."""
    nodes = 0
    leaves = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        nodes += 1
        if node.is_leaf:
            leaves += 1
        else:
            stack.append(node.left)
            stack.append(node.right)
    return nodes, leaves
