"""Built-in synthetic tabular problems, so experiments need no external data.

All three generators are deterministic functions of (name, size):

* line:    one decision x on a uniform grid; cost = x (minimize) and
           value = 1 - x (maximize) improve together, giving the
           gradient-consistent case where recursive bisection always has
           a winning half.
* sphere2: two decisions on a grid; two offset quadratic bowls, both
           minimized, with a genuine trade-off front between the centers.
* step:    the same two-bowl geometry with piecewise-constant objectives,
           one quantized into coarse tiers and one into fine steps, which
           exercises plateaus and duplicate objective values.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ObjectiveSchema, Problem, Sense


def make_line(n: int) -> Problem:
    if n < 2:
        raise ValueError("line needs at least 2 points")
    x = np.arange(n) / (n - 1)
    schema = ObjectiveSchema(("cost", "value"), (Sense.MIN, Sense.MAX))
    return Problem.tabular("line", ("x",), schema, x[:, None], np.column_stack([x, 1.0 - x]))


def make_sphere2(n: int) -> Problem:
    if n < 4:
        raise ValueError("sphere2 needs at least 4 points")
    x, y = _grid2(n)
    schema = ObjectiveSchema(("near_a", "near_b"), (Sense.MIN, Sense.MIN))
    objectives = np.column_stack([
        _squared(x - 0.25) + _squared(y - 0.25),
        _squared(x - 0.75) + _squared(y - 0.75),
    ])
    return Problem.tabular("sphere2", ("x", "y"), schema, np.column_stack([x, y]), objectives)


def _squared(v: np.ndarray) -> np.ndarray:
    """v ** 2 as a Python float computes it, through the C library's pow.
    numpy's ** 2 multiplies, which differs from pow in the last bit on
    about one value in a thousand."""
    return np.float_power(v, 2.0)


def _grid2(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first n points of a k x k grid on [0, 1]^2, k = ceil(sqrt(n)),
    row by row: the x and y column."""
    k = math.ceil(math.sqrt(n))
    grid = np.arange(k) / (k - 1)
    return np.repeat(grid, k)[:n], np.tile(grid, k)[:n]


def make_step(n: int) -> Problem:
    if n < 4:
        raise ValueError("step needs at least 4 points")
    x, y = _grid2(n)
    schema = ObjectiveSchema(("tier", "residual"), (Sense.MIN, Sense.MIN))
    objectives = np.column_stack([
        np.floor(8 * (_squared(x - 0.25) + _squared(y - 0.25))) / 8.0,
        np.floor(1000 * (_squared(x - 0.75) + _squared(y - 0.75))) / 1000.0,
    ])
    return Problem.tabular("step", ("x", "y"), schema, np.column_stack([x, y]), objectives)


SYNTHETICS = {
    "line": make_line,
    "sphere2": make_sphere2,
    "step": make_step,
}


def make_synthetic(name: str, n: int) -> Problem:
    try:
        factory = SYNTHETICS[name]
    except KeyError:
        raise ValueError(
            f"unknown synthetic '{name}' (choose from {sorted(SYNTHETICS)})"
        ) from None
    return factory(n)
