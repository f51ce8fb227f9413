"""Statistical ranking of optimizer results.

a12 is the Vargha-Delaney effect size: the probability that a random draw
from the first sample exceeds one from the second, ties counted half.
scott_knott sorts treatment groups by median and recursively splits them at
the point maximizing the between-group sum of squares, accepting a split
only when the two sides differ by a non-small effect (a12 outside
[0.4, 0.6]). Groups left unsplit share a rank; rank 1 is best.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence


def a12(xs: Sequence[float], ys: Sequence[float]) -> float:
    """P(x > y) + P(x = y)/2 by direct pair counting."""
    if not xs or not ys:
        raise ValueError("a12 needs two nonempty samples")
    more = 0
    ties = 0
    for x in xs:
        for y in ys:
            if x > y:
                more += 1
            elif x == y:
                ties += 1
    return (more + 0.5 * ties) / (len(xs) * len(ys))


@dataclass(frozen=True)
class RankedGroups:
    """Groups in best-first order with contiguous ranks starting at 1.

    Groups sharing a rank were statistically indistinct under the a12 gate.
    """

    entries: tuple[tuple[str, tuple[float, ...]], ...]
    ranks: tuple[int, ...]

    def rank_of(self, label: str) -> int:
        for (name, _), rank in zip(self.entries, self.ranks):
            if name == label:
                return rank
        raise KeyError(label)


def scott_knott(
    groups: Sequence[tuple[str, Sequence[float]]], smaller_is_better: bool = True
) -> RankedGroups:
    if not groups:
        raise ValueError("need at least one group")
    for label, samples in groups:
        if len(samples) == 0:
            raise ValueError(f"group {label!r} has no samples")
    entries = [(label, tuple(float(v) for v in samples)) for label, samples in groups]
    # Median-sorted, best first; the label tie-break makes the ranking
    # independent of input order.
    entries.sort(
        key=lambda e: (
            statistics.median(e[1]) if smaller_is_better else -statistics.median(e[1]),
            e[0],
        )
    )

    ranks = [0] * len(entries)

    def assign(lo: int, hi: int, rank: int) -> int:
        """Rank the sorted segment [lo, hi); returns the next free rank."""
        if hi - lo == 1:
            ranks[lo] = rank
            return rank + 1
        split = _best_split(entries, lo, hi)
        left = [v for _, s in entries[lo:split] for v in s]
        right = [v for _, s in entries[split:hi] for v in s]
        effect = a12(left, right)
        if 0.4 < effect < 0.6:  # trivially small difference: one rank for all
            for k in range(lo, hi):
                ranks[k] = rank
            return rank + 1
        rank = assign(lo, split, rank)
        return assign(split, hi, rank)

    assign(0, len(entries), 1)
    return RankedGroups(entries=tuple(entries), ranks=tuple(ranks))


def _mean(values: list[float]) -> float:
    """Mean with the values added left to right: the float sum() gave
    before Python 3.12 made it compensated, on every version."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def _best_split(entries, lo: int, hi: int) -> int:
    """Split index maximizing n_l*(mu_l - mu)^2 + n_r*(mu_r - mu)^2."""
    mu = _mean([v for _, s in entries[lo:hi] for v in s])
    best_score = None
    best = lo + 1
    for split in range(lo + 1, hi):
        left = [v for _, s in entries[lo:split] for v in s]
        right = [v for _, s in entries[split:hi] for v in s]
        mu_l = _mean(left)
        mu_r = _mean(right)
        score = len(left) * (mu_l - mu) ** 2 + len(right) * (mu_r - mu) ** 2
        if best_score is None or score > best_score:
            best_score = score
            best = split
    return best
