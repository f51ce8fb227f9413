"""Domination trees: a human-readable summary of an optimizer's search.

Every evaluated example is scored by how many other evaluated examples it
indicator-dominates; a regression tree fitted over the decision columns
with those scores as targets then describes which decisions lead to
strong regions. The rendering is an indented text listing with the branch
to the highest-scoring leaf highlighted.

The tree is cart's parallel node arrays. The best path is found in one
backward pass over node numbers, and the rendering is one preorder walk,
left before right.
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


def _best_path(tree: cart.RegressionTree) -> tuple[PathStep, ...]:
    """Path to the leaf with the highest mean score; ties stay leftmost,
    the first maximum of a preorder walk."""
    feature, threshold, left, right, top = (
        a.tolist() for a in (tree.feature, tree.threshold, tree.left, tree.right, tree.prediction)
    )
    # Children are numbered after their parent, so one backward pass gives
    # every node the best leaf mean below it.
    for node in reversed(range(len(left))):
        if left[node] >= 0:
            top[node] = max(top[left[node]], top[right[node]])
    steps: list[PathStep] = []
    node = 0
    while left[node] >= 0:
        go_left = top[left[node]] == top[node]
        steps.append(PathStep(feature[node], "<=" if go_left else ">", threshold[node]))
        node = left[node] if go_left else right[node]
    return tuple(steps)


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
    # Preorder off an explicit stack, as deep trees would blow Python's
    # recursion limit; each non-root node comes with its parent's line for
    # its side.
    stack = [(0, 0, "")]
    while stack:
        node, depth, branch = stack.pop()
        mark = "**" if node in on_path else ""
        if branch:
            lines.append(f"{'|    ' * (depth - 1)}{mark}{branch}{mark}")
        if left[node] < 0:
            lines.append(f"{'|    ' * depth}{mark}({_fmt_score(prediction[node])}){mark}")
        else:
            name, t = dt.decision_names[feature[node]], threshold[node]
            stack.append((right[node], depth + 1, f"{name}>{t:g}"))
            stack.append((left[node], depth + 1, f"{name}<={t:g}"))
    return "\n".join(lines)


def tree_stats(dt: DominationTree) -> tuple[int, int]:
    """(nodes, leaves) of the fitted tree."""
    return len(dt.tree.left), int(np.count_nonzero(dt.tree.left < 0))
