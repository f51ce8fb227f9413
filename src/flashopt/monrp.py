"""Multi-objective next-release planning: instance generation, objectives,
feasibility, and repair-based sampling of valid plans.

An instance is parameterized as N requirements, P releases, M clients, a
dependency percentage, and a funding percentage of total cost. A plan
assigns each requirement a release in 1..P or 0 for "not implemented".

Objectives (value and satisfaction maximized, cost minimized):

* value      f1 = sum_i (score_i * (P - x_i + 1) - risk_i * x_i) * y_i
* satisfaction f2 = sum_i score_i * y_i
* cost       f3 = sum_i cost_i * y_i

where score_i = sum_j weight_j * importance[j][i], x_i is the release of
requirement i and y_i says whether it is implemented at all. Plans are
feasible when every release fits its budget and every implemented
requirement has its dependencies implemented no later than itself.

Pool sampling is word-exact: sample_plans(inst, rng, n) returns the plans
that n one-plan draws from rng would give, and leaves rng in the state
they would leave it in. random.Random is MT19937 (Matsumoto & Nishimura,
1998), and numpy's MT19937 bit generator, loaded with its state, yields
the same 32-bit words, so the words are drawn in bulk chunks. This rests
on CPython's _randbelow_with_getrandbits, which serves randint(0, P) and
randrange(m) alike: k = m.bit_length(), each try reads one 32-bit word
and keeps its top k bits, and a try r >= m is rejected. The property test
against the call-by-call sampler in tests/conftest.py guards it.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import ObjectiveSchema, Problem, Sense


def monrp_schema() -> ObjectiveSchema:
    return ObjectiveSchema(
        names=("value", "satisfaction", "cost"),
        senses=(Sense.MAX, Sense.MAX, Sense.MIN),
    )


@dataclass
class MonrpInstance:
    """One generated planning scenario. Treat as immutable after creation."""

    N: int
    P: int
    M: int
    cost: tuple[float, ...]
    risk: tuple[float, ...]
    weight: tuple[float, ...]
    importance: tuple[tuple[float, ...], ...]  # M rows of N entries
    deps: tuple[tuple[int, int], ...]  # (a, b): a depends on b
    budget: tuple[float, ...]  # one entry per release

    def __post_init__(self):
        if len(self.cost) != self.N or len(self.risk) != self.N:
            raise ValueError("cost and risk must have N entries")
        if len(self.weight) != self.M or len(self.importance) != self.M:
            raise ValueError("weight and importance must have M rows")
        if any(len(row) != self.N for row in self.importance):
            raise ValueError("importance rows must have N entries")
        if len(self.budget) != self.P:
            raise ValueError("budget must have P entries")
        if any(b <= 0 for b in self.budget):
            raise ValueError("budgets must be positive")

    @cached_property
    def scores(self) -> tuple[float, ...]:
        """Per-requirement weighted importance."""
        return tuple(
            sum(self.weight[j] * self.importance[j][i] for j in range(self.M))
            for i in range(self.N)
        )


def generate(
    n_requirements: int,
    n_releases: int,
    n_clients: int,
    dep_pct: float,
    funding_pct: float,
    seed: int,
) -> MonrpInstance:
    """Seeded instance generator for the N-P-M-dep%-funding% family.

    Costs are uniform integers 1..20, risks 1..10, client weights 1..5 and
    importance entries 0..5. floor(dep_pct * N / 100) dependency edges are
    drawn acyclically along a random topological order, and every release
    gets an equal share of funding_pct percent of the total cost.
    """
    if n_requirements < 1 or n_releases < 1 or n_clients < 1:
        raise ValueError("N, P and M must all be at least 1")
    if not 0 <= dep_pct <= 100:
        raise ValueError("dep_pct must lie in [0, 100]")
    if funding_pct <= 0:
        raise ValueError("funding_pct must be positive")
    rng = random.Random(seed)
    cost = tuple(float(rng.randint(1, 20)) for _ in range(n_requirements))
    risk = tuple(float(rng.randint(1, 10)) for _ in range(n_requirements))
    weight = tuple(float(rng.randint(1, 5)) for _ in range(n_clients))
    importance = tuple(
        tuple(float(rng.randint(0, 5)) for _ in range(n_requirements))
        for _ in range(n_clients)
    )

    order = list(range(n_requirements))
    rng.shuffle(order)
    n_edges = int(dep_pct * n_requirements // 100)
    pairs = [(i, j) for j in range(1, n_requirements) for i in range(j)]
    if n_edges > len(pairs):
        raise ValueError(f"cannot place {n_edges} acyclic edges among {n_requirements} nodes")
    deps = tuple(
        (order[j], order[i])  # order[j] depends on the earlier order[i]
        for i, j in (pairs[k] for k in sorted(rng.sample(range(len(pairs)), n_edges)))
    )

    per_release = (funding_pct / 100.0) * sum(cost) / n_releases
    budget = tuple(per_release for _ in range(n_releases))
    return MonrpInstance(
        N=n_requirements,
        P=n_releases,
        M=n_clients,
        cost=cost,
        risk=risk,
        weight=weight,
        importance=importance,
        deps=deps,
        budget=budget,
    )


def evaluate_plan(inst: MonrpInstance, releases) -> np.ndarray:
    """The (k, 3) objective block of the plans in the rows of a (k, N)
    integer matrix; feasibility is not checked here.

    Each requirement's terms are added column by column, in ascending
    index, to sums that start at 0.0, so every float is the one a
    plan-at-a-time loop gives. An unimplemented requirement adds 0.0,
    which changes no sum: one that starts at +0.0 never becomes -0.0.
    """
    x = np.asarray(releases)
    if x.ndim != 2 or x.shape[1] != inst.N:
        raise ValueError(f"plan length {x.shape[-1]} != N={inst.N}")
    on = x != 0
    scores = np.array(inst.scores)
    terms = np.stack([
        np.where(on, scores * (inst.P - x + 1) - np.array(inst.risk) * x, 0.0),
        np.where(on, scores, 0.0),
        np.where(on, np.array(inst.cost), 0.0),
    ], axis=-1)
    y = np.zeros((len(x), 3))
    for i in range(inst.N):
        y += terms[:, i]
    return y


def _check_plan(inst: MonrpInstance, release: Sequence[int]) -> None:
    if len(release) != inst.N:
        raise ValueError(f"plan length {len(release)} != N={inst.N}")
    if min(release) < 0 or max(release) > inst.P:
        raise ValueError(f"plan has a release outside 0..{inst.P}")


def is_feasible(inst: MonrpInstance, release: Sequence[int]) -> bool:
    """Whether one plan keeps every release within its budget and every
    implemented requirement's dependencies implemented no later than it.

    Infeasibility is answered, not raised; only a malformed plan raises.
    """
    # Repair changes a plan exactly when it drops a precedence violator or
    # evicts from an over-budget release, so a feasible plan is its fixed point.
    return repair_plan(inst, release) == list(release)


def _drop_precedence_violators(inst: MonrpInstance, release: list[int]) -> bool:
    """Unimplement requirements whose dependencies are missing or too late,
    and say whether any was.

    Dropping a requirement can strand its own dependents, so iterate to a
    fixpoint; each pass only removes requirements, so this terminates.
    """
    dropped = False
    changed = True
    while changed:
        changed = False
        for a, b in inst.deps:
            if release[a] == 0:
                continue
            if release[b] == 0 or release[b] > release[a]:
                release[a] = 0
                changed = dropped = True
    return dropped


def _release_loads(inst: MonrpInstance, release: Sequence[int]) -> list[float]:
    """The cost of each release 0..P in one pass. A load adds its members'
    costs one by one in ascending requirement index, so it is the float
    that sum() over the member list gives (up to Python 3.11, whose sum()
    adds floats plainly in order)."""
    load = [0.0] * (inst.P + 1)
    for x, c in zip(release, inst.cost):
        load[x] += c
    return load


def repair_plan(inst: MonrpInstance, release: Sequence[int]) -> list[int]:
    """Deterministic feasibility repair of one plan, used on search offspring.

    Precedence violators are dropped, then over-budget releases evict their
    lowest-score requirements (ties to the lowest index). Eviction can break
    precedence again, so the two passes alternate until the plan checks out.
    """
    _check_plan(inst, release)
    release = list(release)
    scores = inst.scores
    while True:
        _drop_precedence_violators(inst, release)
        evicted = False
        load = _release_loads(inst, release)
        for k in range(1, inst.P + 1):
            if load[k] <= inst.budget[k - 1]:
                continue
            members = sorted((scores[i], i) for i, x in enumerate(release) if x == k)
            for _, victim in members:
                if load[k] <= inst.budget[k - 1]:
                    break
                release[victim] = 0
                load[k] -= inst.cost[victim]
                evicted = True
        if not evicted:
            break
    return release


CHUNK_WORDS = 1 << 16  # MT19937 words drawn from numpy per refill, at most


class _WordStream:
    """The 32-bit words of a random.Random, drawn from numpy's MT19937 in
    chunks. ints(n) gives the next n results of randint(0, top) and
    below(m) the next randrange(m), each reading exactly the words Python
    would read; restore() then hands the Random the state after the last
    word read."""

    def __init__(self, rng: random.Random, top: int, size: int):
        self._rng = rng
        self._version, internal, self._gauss = rng.getstate()
        self._bits = np.random.MT19937()
        self._bits.state = {
            "bit_generator": "MT19937",
            "state": {"key": np.array(internal[:-1], dtype=np.uint32), "pos": internal[-1]},
        }
        self._top = top
        self._shift = 32 - (top + 1).bit_length()
        self._size = size
        self._fill()

    def _fill(self) -> None:
        self._chunk_start = self._bits.state
        words = self._bits.random_raw(self._size)
        values = words >> self._shift
        accepted = np.flatnonzero(values <= self._top)
        self._words = words.tolist()
        self._accepted = accepted.tolist()  # positions of words that randint keeps
        self._values = values[accepted].tolist()
        self._pos = 0  # next unread word of the chunk

    def ints(self, n: int) -> list[int]:
        out: list[int] = []
        while len(out) < n:
            j = bisect_left(self._accepted, self._pos)
            take = self._values[j : j + n - len(out)]
            if not take:  # the chunk's last words are all rejected draws
                self._fill()
                continue
            out += take
            self._pos = self._accepted[j + len(take) - 1] + 1
        return out

    def below(self, m: int) -> int:
        shift = 32 - m.bit_length()
        while True:
            if self._pos == len(self._words):
                self._fill()
            r = self._words[self._pos] >> shift
            self._pos += 1
            if r < m:
                return r

    def restore(self) -> None:
        self._bits.state = self._chunk_start
        self._bits.random_raw(self._pos)
        state = self._bits.state["state"]
        self._rng.setstate(
            (self._version, (*state["key"].tolist(), state["pos"]), self._gauss)
        )


def sample_plans(inst: MonrpInstance, rng: random.Random, n: int) -> np.ndarray:
    """n random plans, each repaired until it passes is_feasible, as the
    rows of an (n, N) integer matrix.

    A plan draws randint(0, P) for every requirement, pulls each missing or
    late dependency into its dependent's release (iterating, since
    dependencies chain), then evicts a randrange-chosen member of the first
    over-budget release and drops the dependents stranded by it, until no
    release is over budget. The draws are word-exact: see the module
    docstring.
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    # randint(0, P) keeps over half of all words, so N draws read under 2N words
    # on average, and evictions add a few; a short first chunk only refills.
    words = _WordStream(rng, inst.P, min(CHUNK_WORDS, n * (2 * inst.N + 16)))
    checks = list(zip(range(1, inst.P + 1), inst.budget))
    plans = np.empty((n, inst.N), dtype=int)
    for row in plans:
        release = words.ints(inst.N)
        changed = True
        while changed:
            changed = False
            for a, b in inst.deps:
                if release[a] == 0:
                    continue
                if release[b] == 0 or release[b] > release[a]:
                    release[b] = release[a]
                    changed = True
        load = _release_loads(inst, release)
        listed = 0  # the release whose members `group` lists, in ascending index
        while True:
            for over, cap in checks:
                if load[over] > cap:
                    break
            else:
                break
            if over != listed:
                listed = over
                group = [i for i, x in enumerate(release) if x == over]
            release[group.pop(words.below(len(group)))] = 0
            if _drop_precedence_violators(inst, release):
                load = _release_loads(inst, release)
                listed = 0
            else:  # only this release changed: re-add its members in order
                load[over] = 0.0
                for i in group:
                    load[over] += inst.cost[i]
        row[:] = release
    words.restore()
    return plans


def as_problem(inst: MonrpInstance, name: str = "monrp") -> Problem:
    """Wrap an instance as a GENERATIVE Problem over release vectors, whose
    hooks take and return blocks of rows."""

    def sampler(rng: random.Random, n: int) -> np.ndarray:
        return sample_plans(inst, rng, n).astype(float)

    def evaluator(x: np.ndarray) -> np.ndarray:
        return evaluate_plan(inst, x.astype(int))

    def repairer(x: np.ndarray) -> np.ndarray:
        return np.array([repair_plan(inst, row) for row in x.astype(int).tolist()], dtype=float)

    levels = tuple(float(v) for v in range(inst.P + 1))  # shared by every gene
    return Problem(
        name=name,
        decision_names=tuple(f"r{i}" for i in range(inst.N)),
        schema=monrp_schema(),
        sampler=sampler,
        evaluator=evaluator,
        repairer=repairer,
        gene_values=[levels] * inst.N,
    )
