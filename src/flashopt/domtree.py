"""Domination trees: a human-readable summary of an optimizer's search.

Every evaluated example is scored by how many other evaluated examples it
indicator-dominates; a regression tree fitted over the decision columns
with those scores as targets then describes which decisions lead to
strong regions. The rendering is an indented text listing with the branch
to the highest-scoring leaf highlighted.
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
    """Path to the leaf with the highest mean score; ties stay leftmost.

    One walk, left before right, so the first maximum is the leftmost.
    Each visited node links back to its parent's link in O(1), and only
    the winner's chain of links is turned into steps.
    """
    best_pred = None
    best_link = None
    # A link is (parent node, direction taken, the parent's own link).
    stack: list[tuple[cart.TreeNode, tuple | None]] = [(tree.root, None)]
    while stack:
        node, link = stack.pop()
        if node.is_leaf:
            if best_pred is None or node.prediction > best_pred:
                best_pred = node.prediction
                best_link = link
            continue
        stack.append((node.right, (node, ">", link)))
        stack.append((node.left, (node, "<=", link)))
    steps: list[PathStep] = []
    while best_link is not None:
        node, direction, best_link = best_link
        steps.append(PathStep(node.feature, direction, node.threshold))
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
    lines: list[str] = []

    def mark(text: str, on_path: bool) -> str:
        return f"**{text}**" if on_path else text

    # Explicit stack; deep unbalanced trees would blow Python's recursion limit.
    stack: list[tuple] = [("visit", dt.tree.root, 0, dt.best_path, True)]
    while stack:
        item = stack.pop()
        if item[0] == "line":
            lines.append(item[1])
            continue
        _, node, depth, remaining, on_path = item
        prefix = "|    " * depth
        if node.is_leaf:
            lines.append(prefix + mark(f"({_fmt_score(node.prediction)})", on_path))
            continue
        step = remaining[0] if (on_path and remaining) else None
        name = dt.decision_names[node.feature]
        for direction, child in ((">", node.right), ("<=", node.left)):
            child_on_path = step is not None and step.direction == direction
            stack.append(
                (
                    "visit",
                    child,
                    depth + 1,
                    remaining[1:] if child_on_path else (),
                    child_on_path,
                )
            )
            stack.append(
                ("line", prefix + mark(f"{name}{direction}{node.threshold:g}", child_on_path))
            )
    return "\n".join(lines)


def tree_stats(dt: DominationTree) -> tuple[int, int]:
    """(nodes, leaves) of the fitted tree."""
    return cart.tree_size(dt.tree)
