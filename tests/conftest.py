"""Shared fixtures and independent brute-force oracles.

The oracles below re-implement the comparison definitions directly from
their formulas, in plain Python, without touching the library's dominance
module. Tests freeze expected values computed by these oracles and compare
the library against them. reference_class_wins, reference_class_scores,
reference_nondominated_mask and reference_pick are the exceptions: the
earlier numpy forms of the indicator-wins kernel, of its one-thread
scoring, of the non-dominated filter and of flash's pick, kept as their
exact references. So are reference_crowding_distance,
reference_rank_and_crowd and reference_select, NSGA-II's earlier
loop-form crowding and its sort-twice selection over the library's
nondominated_sort, and reference_nondominated_sort and reference_snap, the
earlier (d, d, m) form of that sort, grouping rows with a dict, and
NSGA-II's earlier snapping of children to pool rows. Like the library's
set-level kernels, the references take one objective matrix and answer
in row indices. reference_random_plan, reference_repair_plan and
reference_evaluate_plan are the earlier one-plan-at-a-time MONRP sampler,
drawing from a random.Random call by call, the earlier MONRP repair, and
the earlier per-plan objective loop; each takes or gives one release
list. reference_fit is the earlier node-at-a-time CART fit, one argsort
and split search per node off a stack, returning the root of a RefNode
graph, the earlier linked form of a tree; node_graph builds that graph
from a fitted tree's node arrays. reference_predict, reference_best_path
and reference_render walk it: the earlier predict_many, the earlier
best-path walk that copies a path tuple per node, and the earlier
stack-of-pending-lines render.
reference_best_splits is the earlier batched split search, which
computed a gain at every (feature, node, position) of a block and masked
the positions between equal values.
reference_load_tabular is the earlier line-by-line table loader, which
built one tuple per row and checked every cell on its own, and
reference_dump_csv the earlier run dump, which took the repr of every
cell of every row, and reference_synthetic the earlier synthetic tables,
built as lists of Python floats. reference_random_plan, reference_repair_plan,
reference_fit and reference_pick also check the sampler that keeps its
loads across evictions, the block repair, the joint fit of m trees and
the pick over leaf cells.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from flashopt import cart
from flashopt.dominance import _ordered_sum, nondominated_sort, oriented_matrix
from flashopt.core import (
    LoadError,
    ObjectiveSchema,
    Pool,
    Problem,
    Sense,
    min_max_scale,
    read_utf8,
)
from flashopt.domtree import DominationTree, PathStep
from flashopt.monrp import MonrpInstance


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


def reference_class_scores(keys, counts, schema) -> np.ndarray:
    """The scoring kernel in its earlier one-thread form: counts[j] summed
    over the vectors j that vector i indicator-dominates, added as integers
    one 16-row tile at a time, every tile with the overflow shift."""
    m = len(schema)
    signed = np.asarray(keys, dtype=float) * np.array(schema.weights, dtype=float)
    d = signed.shape[0]
    cols = np.ascontiguousarray(signed.T)
    scores = np.zeros(d, dtype=counts.dtype)
    for a in range(0, d, 16):
        b = min(d, a + 16)
        delta = [(cols[k][a:b, None] - cols[k][None, a:]) / m for k in range(m)]
        shift = np.abs(delta[0])
        for k in range(1, m):
            shift = np.maximum(shift, np.abs(delta[k]))
        shift = np.maximum(shift - 700.0, 0.0)
        forward = _ordered_sum([np.exp(dk - shift) for dk in delta])
        backward = _ordered_sum([np.exp(-shift - dk) for dk in delta])
        beats, beaten = backward < forward, forward < backward
        beaten[:, : b - a] = False
        scores[a:b] += beats @ counts[a:]
        scores[a:] += counts[a:b] @ beaten
    return scores


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


def reference_crowding_distance(y) -> list[float]:
    """Classic crowding of the rows of one front's objective matrix:
    boundary rows get +inf, interior rows sum the range-normalized gaps
    between their sorted neighbors per objective."""
    if len(y) == 0:
        raise ValueError("front must be nonempty")
    values = np.asarray(y, dtype=float)
    n = len(values)
    dist = np.zeros(n)
    for j in range(values.shape[1]):
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


def reference_rank_and_crowd(y, schema):
    """Front rank and crowding of every row, from a fresh sort of the
    population's objective matrix alone."""
    ranks = [0] * len(y)
    crowd = [0.0] * len(y)
    for rank, members in enumerate(nondominated_sort(y, schema)):
        dists = reference_crowding_distance(y[list(members)])
        for k, d in zip(members, dists):
            ranks[k] = rank
            crowd[k] = d
    return ranks, crowd


def reference_select(y, pop_size, schema) -> list[int]:
    """Environmental selection over the rows of y: whole fronts first, the
    boundary front truncated by descending crowding distance (ties to the
    lowest row). Returns the chosen rows in selection order."""
    chosen: list[int] = []
    for front in nondominated_sort(y, schema):
        members = list(front)
        if len(chosen) + len(members) <= pop_size:
            chosen.extend(members)
            if len(chosen) == pop_size:
                break
            continue
        dists = reference_crowding_distance(y[members])
        ordered = sorted(range(len(members)), key=lambda k: (-dists[k], members[k]))
        for k in ordered[: pop_size - len(chosen)]:
            chosen.append(members[k])
        break
    return chosen


def _distinct_classes(y):
    """Group the rows of y by exact objective vector, first-appearance
    order: the distinct vectors, and the rows holding each."""
    classes: dict[tuple[float, ...], list[int]] = {}
    for k, row in enumerate(np.asarray(y, dtype=float).tolist()):
        classes.setdefault(tuple(row), []).append(k)
    return list(classes), list(classes.values())


def reference_nondominated_sort(y, schema) -> tuple[tuple[int, ...], ...]:
    """Fast non-dominated sort of the rows of y, with its dominance matrix
    built from (d, d, m) comparisons in one step and rows grouped by a
    dict."""
    if len(y) == 0:
        raise ValueError("cannot sort an empty set")
    keys, members = _distinct_classes(y)
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
        front = sorted(k for ci in np.nonzero(current)[0] for k in members[ci])
        fronts.append(tuple(front))
        remaining &= ~current
        dom_count = dom_count - dominates[current].sum(axis=0)
    return tuple(fronts)


def reference_snap(table, used, children) -> list[int]:
    """NSGA-II's snapping of children to pool rows in its closure form:
    min-max scale, full squared-distance rows summed over axis 1, used rows
    masked to inf while any row is unused, first minimum. Returns the row
    each child in turn snaps to; used lists the rows taken beforehand."""
    lo, hi = table.min(axis=0), table.max(axis=0)
    table_norm = min_max_scale(table, lo, hi)
    unused = np.ones(len(table), dtype=bool)
    for i in used:
        unused[i] = False
    out = []
    for decisions in children:
        vec = min_max_scale(np.array(decisions, dtype=float), lo, hi)
        d = ((table_norm - vec) ** 2).sum(axis=1)
        if unused.any():
            d = np.where(unused, d, np.inf)
        row = int(np.argmin(d))  # first minimum, so ties go to the lowest id
        unused[row] = False
        out.append(row)
    return out


def _reference_drop_precedence_violators(inst: MonrpInstance, release: list[int]) -> None:
    changed = True
    while changed:
        changed = False
        for a, b in inst.deps:
            if release[a] == 0:
                continue
            if release[b] == 0 or release[b] > release[a]:
                release[a] = 0
                changed = True


def reference_random_plan(inst: MonrpInstance, rng: random.Random) -> list[int]:
    """One random plan, repaired until feasible, drawn call by call from rng."""
    release = [rng.randint(0, inst.P) for _ in range(inst.N)]
    # Precedence first: pull each missing or late dependency into the
    # dependent's release. Iterate because dependencies chain.
    changed = True
    while changed:
        changed = False
        for a, b in inst.deps:
            if release[a] == 0:
                continue
            if release[b] == 0 or release[b] > release[a]:
                release[b] = release[a]
                changed = True
    # Budgets: evict random members from over-budget releases, then drop any
    # dependents stranded by an eviction and re-check.
    while True:
        over = None
        for k in range(1, inst.P + 1):
            members = [i for i, x in enumerate(release) if x == k]
            load = 0.0  # left to right, as sum() added floats before Python 3.12
            for i in members:
                load += inst.cost[i]
            if load > inst.budget[k - 1]:
                over = (k, members)
                break
        if over is None:
            break
        _, members = over
        victim = members[rng.randrange(len(members))]
        release[victim] = 0
        _reference_drop_precedence_violators(inst, release)
    return release


def reference_repair_plan(inst: MonrpInstance, plan: list[int]) -> list[int]:
    """MONRP repair with a member list and a sum() per release per pass."""
    if len(plan) != inst.N:
        raise ValueError(f"plan length {len(plan)} != N={inst.N}")
    release = list(plan)
    scores = inst.scores
    while True:
        _reference_drop_precedence_violators(inst, release)
        evicted = False
        for k in range(1, inst.P + 1):
            members = [i for i, x in enumerate(release) if x == k]
            load = 0.0  # left to right, as sum() added floats before Python 3.12
            for i in members:
                load += inst.cost[i]
            members.sort(key=lambda i: (scores[i], i))
            while load > inst.budget[k - 1] and members:
                victim = members.pop(0)
                release[victim] = 0
                load -= inst.cost[victim]
                evicted = True
        if not evicted:
            break
    return release


def reference_evaluate_plan(inst: MonrpInstance, plan: list[int]) -> tuple[float, float, float]:
    """Objective values of one plan, each sum built requirement by
    requirement in ascending index."""
    if len(plan) != inst.N:
        raise ValueError(f"plan length {len(plan)} != N={inst.N}")
    scores = inst.scores
    f1 = 0.0
    f2 = 0.0
    f3 = 0.0
    for i, x in enumerate(plan):
        if x == 0:
            continue
        f1 += scores[i] * (inst.P - x + 1) - inst.risk[i] * x
        f2 += scores[i]
        f3 += inst.cost[i]
    return (f1, f2, f3)


@dataclass
class RefNode:
    """A tree node as the earlier linked CART stored it: an internal node
    (feature/threshold/left/right set) or a leaf. Rows with feature value
    <= threshold go left; n training rows reached the node."""

    n: int
    prediction: float
    feature: int | None = None
    threshold: float | None = None
    left: "RefNode | None" = None
    right: "RefNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def node_graph(tree: cart.RegressionTree) -> RefNode:
    """The linked node graph of a fitted tree's node arrays; returns the root."""
    nodes = [
        RefNode(n=n, prediction=p)
        for n, p in zip(tree.n.tolist(), tree.prediction.tolist())
    ]
    for k, node in enumerate(nodes):
        if tree.left[k] >= 0:
            node.feature = int(tree.feature[k])
            node.threshold = float(tree.threshold[k])
            node.left = nodes[tree.left[k]]
            node.right = nodes[tree.right[k]]
    return nodes[0]


def _root(tree) -> RefNode:
    return node_graph(tree) if isinstance(tree, cart.RegressionTree) else tree


def reference_fit(x, y) -> RefNode:
    """CART grown one node at a time off a stack: each node argsorts its
    own rows and searches its own (n - 1, f) gain matrix. Returns the root."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    root = RefNode(n=int(y.size), prediction=float(y.mean()))
    stack = [(root, np.arange(y.size))]
    while stack:
        node, idx = stack.pop()
        split = _reference_best_split(x, y, idx)
        if split is None:
            continue
        feature, threshold = split
        left_mask = x[idx, feature] <= threshold
        left_idx = idx[left_mask]
        right_idx = idx[~left_mask]
        node.feature = feature
        node.threshold = threshold
        node.left = RefNode(n=int(left_idx.size), prediction=float(y[left_idx].mean()))
        node.right = RefNode(n=int(right_idx.size), prediction=float(y[right_idx].mean()))
        stack.append((node.left, left_idx))
        stack.append((node.right, right_idx))
    return root


def _reference_best_split(x, y, idx):
    n = idx.size
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

    valid = xs[1:] != xs[:-1]
    if not valid.any():
        return None

    csum = np.cumsum(ys, axis=0)
    csq = np.cumsum(ys * ys, axis=0)
    nl = np.arange(1.0, n)[:, None]
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
    if flat[k] <= cart._GAIN_EPS * max(1.0, parent_sse):
        return None
    feature, pos = divmod(k, n - 1)
    pos += 1
    lo, hi = xs[pos - 1, feature], xs[pos, feature]
    threshold = 0.5 * (lo + hi)
    if threshold >= hi:
        threshold = lo
    return int(feature), float(threshold)


def reference_best_splits(xs, ys, ysub, total):
    """The earlier cart._best_splits: gains for every (feature, node,
    position) of the (f, B, n) block in one (f, B, n-1) array, -inf
    between equal values, and a feature-major argmax per node."""
    f, b, n = xs.shape
    total_sq = (ysub * ysub).sum(axis=1)
    parent_sse = total_sq - total * total / n

    ys = ys[:, :, :-1]
    sl = np.cumsum(ys, axis=2)
    ql = np.cumsum(ys * ys, axis=2)
    nl = np.arange(1.0, n)
    nr = float(n) - nl
    gain = sl * sl
    gain /= nl
    np.subtract(ql, gain, out=gain)
    sr = np.subtract(total[:, None], sl, out=sl)
    sr *= sr
    sr /= nr
    qr = np.subtract(total_sq[:, None], ql, out=ql)
    np.subtract(qr, sr, out=sr)
    gain += sr
    np.subtract(parent_sse[:, None], gain, out=gain)
    np.putmask(gain, xs[:, :, 1:] == xs[:, :, :-1], -np.inf)

    k = gain.transpose(1, 0, 2).reshape(b, -1).argmax(axis=1)
    feature, pos = np.divmod(k, n - 1)
    node = np.arange(b)
    thresholds = []
    for best, sse, lo, hi in zip(
        gain[feature, node, pos].tolist(),
        parent_sse.tolist(),
        xs[feature, node, pos].tolist(),
        xs[feature, node, pos + 1].tolist(),
    ):
        if best <= cart._GAIN_EPS * max(1.0, sse):
            thresholds.append(None)
            continue
        threshold = 0.5 * (lo + hi)
        if threshold >= hi:
            threshold = lo
        thresholds.append(threshold)
    return feature, pos, thresholds


def tree_nodes(tree) -> list[tuple]:
    """Every node's (n, prediction, feature, threshold) in preorder, left
    before right, of a fitted tree or a reference root node: two trees are
    identical node for node iff these match. Leaves give None, None."""
    out = []
    stack = [_root(tree)]
    while stack:
        node = stack.pop()
        out.append((node.n, node.prediction, node.feature, node.threshold))
        if not node.is_leaf:
            stack.append(node.right)
            stack.append(node.left)
    return out


def reference_predict(tree: cart.RegressionTree, x) -> np.ndarray:
    """The earlier predict_many: every row routed over the linked nodes."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[0], dtype=float)
    stack = [(node_graph(tree), np.arange(x.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if node.is_leaf:
            out[rows] = node.prediction
            continue
        mask = x[rows, node.feature] <= node.threshold
        stack.append((node.left, rows[mask]))
        stack.append((node.right, rows[~mask]))
    return out


def reference_best_path(tree: cart.RegressionTree) -> tuple[PathStep, ...]:
    """Path to the leftmost leaf with the highest mean, from a walk that
    carries a whole path tuple per node."""
    best_pred = None
    best: tuple[PathStep, ...] = ()
    stack = [(node_graph(tree), ())]
    ordered = []
    while stack:
        node, path = stack.pop()
        if node.is_leaf:
            ordered.append((path, node.prediction))
            continue
        stack.append((node.right, path + (PathStep(node.feature, ">", node.threshold),)))
        stack.append((node.left, path + (PathStep(node.feature, "<=", node.threshold),)))
    for path, pred in ordered:
        if best_pred is None or pred > best_pred:
            best_pred = pred
            best = path
    return best


def reference_render(dt: DominationTree) -> str:
    """The earlier render: an explicit stack of pending lines and visits
    over the linked nodes, following dt.best_path from the root."""
    lines: list[str] = []

    def mark(text: str, on_path: bool) -> str:
        return f"**{text}**" if on_path else text

    def fmt_score(v: float) -> str:
        return str(int(v)) if float(v).is_integer() else f"{v:.1f}"

    stack: list[tuple] = [("visit", node_graph(dt.tree), 0, dt.best_path, True)]
    while stack:
        item = stack.pop()
        if item[0] == "line":
            lines.append(item[1])
            continue
        _, node, depth, remaining, on_path = item
        prefix = "|    " * depth
        if node.is_leaf:
            lines.append(prefix + mark(f"({fmt_score(node.prediction)})", on_path))
            continue
        step = remaining[0] if (on_path and remaining) else None
        name = dt.decision_names[node.feature]
        for direction, child in ((">", node.right), ("<=", node.left)):
            child_on_path = step is not None and step.direction == direction
            stack.append(
                ("visit", child, depth + 1, remaining[1:] if child_on_path else (), child_on_path)
            )
            stack.append(
                ("line", prefix + mark(f"{name}{direction}{node.threshold:g}", child_on_path))
            )
    return "\n".join(lines)


def reference_load_tabular(path: str | Path) -> Problem:
    """The earlier loader, kept verbatim except that its lines end at CR,
    LF or CR LF only, as the library's loader and csv split them."""
    path = Path(path)
    lines = read_utf8(path).replace("\r\n", "\n").replace("\r", "\n").split("\n")
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        raise LoadError(f"{path}: empty file")

    header = [c.strip() for c in lines[0].split(",")]
    decision_idx: list[int] = []
    decision_names: list[str] = []
    objective_idx: list[int] = []
    obj_names: list[str] = []
    senses: list[Sense] = []
    for col, cell in enumerate(header):
        if cell == "":
            raise LoadError(f"{path}:1: empty header name in column {col + 1}")
        if cell[0] in "-+":
            name = cell[1:]
            if name == "":
                raise LoadError(f"{path}:1: bare objective prefix in column {col + 1}")
            objective_idx.append(col)
            obj_names.append(name)
            senses.append(Sense.MIN if cell[0] == "-" else Sense.MAX)
        else:
            decision_idx.append(col)
            decision_names.append(cell)
    if not objective_idx:
        raise LoadError(f"{path}:1: no objective columns")
    if not decision_idx:
        raise LoadError(f"{path}:1: no decision columns")
    if len(set(obj_names)) != len(obj_names):
        raise LoadError(f"{path}:1: duplicate objective names")
    if len(set(decision_names)) != len(decision_names):
        raise LoadError(f"{path}:1: duplicate decision names")
    schema = ObjectiveSchema(tuple(obj_names), tuple(senses))

    rows: list[tuple[float, ...]] = []
    measured: list[tuple[float, ...]] = []
    seen: dict[tuple[float, ...], tuple[int, tuple[float, ...]]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise LoadError(
                f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}"
            )
        parsed: list[float] = []
        for col, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise LoadError(
                    f"{path}:{lineno}: non-numeric or non-finite cell '{cell}' "
                    f"in column {col + 1}"
                )
            parsed.append(value)
        dec = tuple(parsed[i] for i in decision_idx)
        obj = tuple(parsed[i] for i in objective_idx)
        if dec in seen:
            prev_line, prev_obj = seen[dec]
            if prev_obj != obj:
                raise LoadError(
                    f"{path}:{lineno}: row duplicates line {prev_line} "
                    "with conflicting objectives"
                )
        else:
            seen[dec] = (lineno, obj)
        rows.append(dec)
        measured.append(obj)
    if not rows:
        raise LoadError(f"{path}: no data rows")

    return Problem.tabular(path.stem, decision_names, schema, rows, measured)


def reference_dump_csv(problem: Problem, result) -> str:
    """The earlier run dump: the repr of every cell, row by row."""
    header = list(problem.decision_names) + [
        ("-" if s is Sense.MIN else "+") + name
        for name, s in zip(problem.schema.names, problem.schema.senses)
    ]
    lines = [",".join(header)]
    for row in np.hstack([result.x, result.y]):
        lines.append(",".join(map(repr, row.tolist())))
    return "\n".join(lines) + "\n"


def reference_synthetic(name: str, n: int) -> Problem:
    """The earlier list-built synthetic tables: line, sphere2 or step of n
    rows, one Python float at a time."""
    if name == "line":
        xs = [i / (n - 1) for i in range(n)]
        schema = ObjectiveSchema(("cost", "value"), (Sense.MIN, Sense.MAX))
        return Problem.tabular(
            "line", ("x",), schema, [(x,) for x in xs], [(x, 1.0 - x) for x in xs]
        )
    k = math.ceil(math.sqrt(n))
    grid = [i / (k - 1) for i in range(k)]
    rows = [(x, y) for x in grid for y in grid][:n]
    if name == "sphere2":
        schema = ObjectiveSchema(("near_a", "near_b"), (Sense.MIN, Sense.MIN))
        objectives = [
            ((x - 0.25) ** 2 + (y - 0.25) ** 2, (x - 0.75) ** 2 + (y - 0.75) ** 2)
            for x, y in rows
        ]
    else:
        schema = ObjectiveSchema(("tier", "residual"), (Sense.MIN, Sense.MIN))
        objectives = [
            (
                math.floor(8 * ((x - 0.25) ** 2 + (y - 0.25) ** 2)) / 8.0,
                math.floor(1000 * ((x - 0.75) ** 2 + (y - 0.75) ** 2)) / 1000.0,
            )
            for x, y in rows
        ]
    return Problem.tabular(name, ("x", "y"), schema, rows, objectives)


def whole_pool(problem: Problem) -> Pool:
    """Every row of a tabular problem as one pool, ids its row numbers."""
    return Pool(np.arange(problem.pool_size), problem.x)


def senses_of(schema: ObjectiveSchema) -> list[str]:
    return ["min" if s is Sense.MIN else "max" for s in schema.senses]


@pytest.fixture
def min2() -> ObjectiveSchema:
    return ObjectiveSchema(("f1", "f2"), (Sense.MIN, Sense.MIN))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
