"""Domination trees: a human-readable summary of an optimizer's search.

Every evaluated example is scored by how many other evaluated examples it
indicator-dominates; a regression tree fitted over the decision columns
with those scores as targets then describes which decisions lead to
strong regions. The rendering is an indented text listing with the branch
to the highest-scoring leaf highlighted.

The tree is cart's parallel node arrays. The best path and the rendering
both read it in one preorder walk over node numbers, left before right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import cart
from .core import ObjectiveSchema
from .dominance import domination_scores


@dataclass(frozen=True)
class PathStep:
    feature: int
    direction: str  # "<=" or ">"
    threshold: float


@dataclass
class DominationTree:
    tree: cart.RegressionTree
    decision_names: tuple[str, ...]
    best_path: tuple[PathStep, ...]


def build_domination_tree(
    x: np.ndarray,
    y: np.ndarray,
    schema: ObjectiveSchema,
    names: Sequence[str],
) -> DominationTree:
    """Fit the score-summarizing tree over the evaluated examples: row k
    of the decision matrix x and of the objective matrix y is example k."""
    x = np.asarray(x, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least 2 evaluated points")
    if len(names) != x.shape[1]:
        raise ValueError("one name per decision column required")
    tree = cart.fit_arrays(x, domination_scores(y, schema).astype(float))
    return DominationTree(
        tree=tree, decision_names=tuple(names), best_path=_best_path(tree)
    )


def _preorder(left: list[int], right: list[int]) -> list[tuple[int, int]]:
    """Every node with its parent (-1 at the root), left subtree before right,
    off an explicit stack: deep trees would blow Python's recursion limit."""
    order = []
    stack = [(0, -1)]
    while stack:
        node, parent = stack.pop()
        order.append((node, parent))
        if left[node] >= 0:
            stack.append((right[node], node))
            stack.append((left[node], node))
    return order


def _best_path(tree: cart.RegressionTree) -> tuple[PathStep, ...]:
    """Path to the leaf with the highest mean score; ties stay leftmost,
    the first maximum of the preorder walk."""
    feature, threshold, left, prediction = (
        a.tolist() for a in (tree.feature, tree.threshold, tree.left, tree.prediction)
    )
    walk = _preorder(left, tree.right.tolist())
    parent = dict(walk)
    best = max((node for node, _ in walk if left[node] < 0), key=prediction.__getitem__)
    steps: list[PathStep] = []
    while parent[best] >= 0:
        up = parent[best]
        steps.append(PathStep(feature[up], "<=" if left[up] == best else ">", threshold[up]))
        best = up
    return tuple(reversed(steps))


def _fmt_score(v: float) -> str:
    if float(v).is_integer():
        return str(int(v))
    return f"{v:.1f}"


def render(dt: DominationTree) -> str:
    """Indented text tree; best-path lines are wrapped in ** markers.

    Internal nodes print one line per side ("name<=t" / "name>t"), each
    followed by that side's subtree one level deeper; leaves print their
    mean score in parentheses.
    """
    tree = dt.tree
    feature, threshold, left, right, prediction = (
        a.tolist() for a in (tree.feature, tree.threshold, tree.left, tree.right, tree.prediction)
    )
    node, on_path = 0, {0}
    for step in dt.best_path:
        node = (left if step.direction == "<=" else right)[node]
        on_path.add(node)
    lines: list[str] = []
    depth = [0] * len(left)
    # Each non-root node is reached through its parent's line for its side.
    for node, parent in _preorder(left, right):
        mark = "**" if node in on_path else ""
        if parent >= 0:
            depth[node] = depth[parent] + 1
            side = "<=" if left[parent] == node else ">"
            branch = f"{dt.decision_names[feature[parent]]}{side}{threshold[parent]:g}"
            lines.append(f"{'|    ' * depth[parent]}{mark}{branch}{mark}")
        if left[node] < 0:
            lines.append(f"{'|    ' * depth[node]}{mark}({_fmt_score(prediction[node])}){mark}")
    return "\n".join(lines)


def tree_stats(dt: DominationTree) -> tuple[int, int]:
    """(nodes, leaves) of the fitted tree."""
    return len(dt.tree.left), int(np.count_nonzero(dt.tree.left < 0))
