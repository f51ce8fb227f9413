"""Quality indicators against a reference front.

The reference front is the non-dominated subset of every solution found by
any optimizer for one problem; it stands in for the true Pareto frontier.
Both indicators first min-max normalize objective values by the reference
front's own per-objective bounds, then average nearest-neighbor Euclidean
distances. Smaller is better for both:

* gd:  mean distance from each obtained point to its nearest reference point
* igd: mean distance from each reference point to its nearest obtained point

Solutions are the rows of an (n, m) objective matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ObjectiveSchema, min_max_scale, row_keys
from .dominance import front0, _matrix


@dataclass(frozen=True)
class ReferenceFront:
    points: tuple[tuple[float, ...], ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]


def reference_front(y, schema: ObjectiveSchema) -> ReferenceFront:
    """Non-dominated subset of the pooled solutions, the rows of y,
    duplicates collapsed.

    Points keep first-appearance order; the per-objective bounds of the
    surviving points travel with the front for normalization.
    """
    if len(y) == 0:
        raise ValueError("cannot build a reference front from nothing")
    y = _matrix(y, schema)
    _, first = np.unique(row_keys(y), return_index=True)
    keys = y[np.sort(first)]
    front = keys[front0(keys, schema)]
    return ReferenceFront(
        points=tuple(map(tuple, front.tolist())),
        lo=tuple(front.min(axis=0).tolist()),
        hi=tuple(front.max(axis=0).tolist()),
    )


def _mean_nearest(a, b, ref: ReferenceFront, schema: ObjectiveSchema) -> float:
    """Mean over a of the Euclidean distance to the nearest point of b, both
    scaled by the reference front's bounds. A zero-range axis carries no
    information and contributes nothing."""
    lo, hi = np.array(ref.lo), np.array(ref.hi)
    a, b = (min_max_scale(_matrix(v, schema), lo, hi) for v in (a, b))
    total = 0.0
    chunk = max(1, int(2_000_000 / max(1, b.shape[0])))
    for start in range(0, a.shape[0], chunk):
        part = a[start : start + chunk]
        d2 = ((part[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        total += np.sqrt(d2.min(axis=1)).sum()
    return float(total / a.shape[0])


def gd(obtained, ref: ReferenceFront, schema: ObjectiveSchema) -> float:
    """Mean distance from obtained solutions to the reference front."""
    if len(obtained) == 0 or len(ref.points) == 0:
        raise ValueError("gd needs nonempty obtained solutions and reference front")
    return _mean_nearest(obtained, ref.points, ref, schema)


def igd(obtained, ref: ReferenceFront, schema: ObjectiveSchema) -> float:
    """Mean distance from the reference front to the obtained solutions."""
    if len(obtained) == 0 or len(ref.points) == 0:
        raise ValueError("igd needs nonempty obtained solutions and reference front")
    return _mean_nearest(ref.points, obtained, ref, schema)
