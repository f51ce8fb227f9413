"""Shared fixtures and independent brute-force oracles.

The oracles below re-implement the comparison definitions directly from
their formulas, in plain Python, without touching the library's dominance
module. Tests freeze expected values computed by these oracles and compare
the library against them. reference_class_wins is the exception: the numpy
form of the indicator-wins kernel, kept as its bit-exact reference.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from flashopt.core import (
    DecisionPoint,
    EvaluatedPoint,
    ObjectiveSchema,
    ObjectiveVector,
    Sense,
)


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


def senses_of(schema: ObjectiveSchema) -> list[str]:
    return ["min" if s is Sense.MIN else "max" for s in schema.senses]


def make_points(vectors) -> list[EvaluatedPoint]:
    """Wrap raw objective tuples as evaluated points with ids 0, 1, ..."""
    return [
        EvaluatedPoint(
            DecisionPoint(i, (float(i),)), ObjectiveVector(tuple(map(float, v))), i
        )
        for i, v in enumerate(vectors)
    ]


@pytest.fixture
def min2() -> ObjectiveSchema:
    return ObjectiveSchema(("f1", "f2"), (Sense.MIN, Sense.MIN))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
