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
        # Written so that NaN fails: sampling and repair would then
        # disagree on which plans fit.
        if not all(b > 0 for b in self.budget):
            raise ValueError("budgets must be positive")
        if not all(c == c for c in self.cost):
            raise ValueError("costs must not be NaN")

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


def _check_plans(inst: MonrpInstance, plans) -> np.ndarray:
    x = np.array(plans, dtype=int, ndmin=2)
    if x.ndim != 2 or x.shape[1] != inst.N:
        raise ValueError(f"plan length {x.shape[-1]} != N={inst.N}")
    if x.size and (x.min() < 0 or x.max() > inst.P):
        raise ValueError(f"plan has a release outside 0..{inst.P}")
    return x


def is_feasible(inst: MonrpInstance, release: Sequence[int]) -> bool:
    """Whether one plan keeps every release within its budget and every
    implemented requirement's dependencies implemented no later than it.

    Infeasibility is answered, not raised; only a malformed plan raises.
    """
    # Repair changes a plan exactly when it drops a precedence violator or
    # evicts from an over-budget release, so a feasible plan is its fixed point.
    return repair_plan(inst, release) == list(release)


def repair_plan(inst: MonrpInstance, release: Sequence[int]) -> list[int]:
    """Deterministic feasibility repair of one plan: repair_plans of one row."""
    return repair_plans(inst, [release])[0].tolist()


def repair_plans(inst: MonrpInstance, plans) -> np.ndarray:
    """Deterministic feasibility repair of the plans in the rows of a (k, N)
    integer matrix, used on search offspring; returns the repaired rows.

    Precedence violators are dropped, then over-budget releases evict their
    lowest-score requirements (ties to the lowest index). Eviction can break
    precedence again, so the two passes alternate until the plan checks out.

    Each pass takes every unfinished row at once and gives the floats of a
    plan-at-a-time loop. A release's load is the cumsum of its members'
    costs in ascending index, where non-members add +0.0, which changes no
    sum. Evictions walk the members in (score, index) order: subtracting
    their costs with np.subtract.accumulate repeats load -= cost step by
    step, and a member goes while every load before it is over budget.
    Dropping precedence violators reaches one fixpoint in any order, since
    a drop mends no other requirement's violation, so each round drops
    every current violator of every row.
    """
    x = _check_plans(inst, plans)
    cost = np.array(inst.cost)
    budget = np.array(inst.budget)
    order = np.lexsort((np.arange(inst.N), np.array(inst.scores)))
    ranked_cost = cost[order]
    releases = np.arange(1, inst.P + 1)
    a, b = np.array(inst.deps, dtype=int).reshape(-1, 2).T
    todo = np.arange(len(x))
    while todo.size:
        block = x[todo]
        while a.size:
            xa, xb = block[:, a], block[:, b]
            rows, edges = np.nonzero((xa != 0) & ((xb == 0) | (xb > xa)))
            if not rows.size:
                break
            block[rows, a[edges]] = 0
        # (N, rows, P) terms, so that the cumsum runs down the requirements.
        terms = np.where(block.T[:, :, None] == releases, cost[:, None, None], 0.0)
        load = np.cumsum(terms, axis=0)[-1]
        rows, over = np.nonzero(~(load <= budget))
        x[todo] = block
        if not rows.size:
            break
        # The members of each over-budget release, in (score, index) order.
        ranked = block[rows][:, order] == releases[over, None]
        left = np.where(ranked, ranked_cost, 0.0)
        left[:, 1:] = left[:, :-1]
        left[:, 0] = load[rows, over]
        np.subtract.accumulate(left, axis=1, out=left)
        evict = ranked & np.logical_and.accumulate(~(left <= budget[over, None]), axis=1)
        pair, at = np.nonzero(evict)
        x[todo[rows[pair]], order[at]] = 0
        evicted = np.zeros(len(todo), dtype=bool)
        evicted[rows[pair]] = True
        todo = todo[evicted]
    return x


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
        # Memoryviews index to Python ints without converting every word.
        self._words = memoryview(words)
        self._accepted = memoryview(accepted)  # positions of words that randint keeps
        self._values = values[accepted].tolist()
        self._pos = 0  # next unread word of the chunk
        self._next = 0  # next accepted position that may be unread

    def ints(self, n: int) -> list[int]:
        out: list[int] = []
        while len(out) < n:
            j, acc = self._next, self._accepted
            while j < len(acc) and acc[j] < self._pos:  # a word below() read
                j += 1
            take = self._values[j : j + n - len(out)]
            if not take:  # the chunk's last words are all rejected draws
                self._fill()
                continue
            out += take
            self._next = j + len(take)
            self._pos = acc[self._next - 1] + 1
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

    A plan keeps the ascending member list of each release it evicts from
    across its evictions. The plan meets precedence before each eviction,
    so the requirements stranded by one are exactly the victim's
    implemented transitive dependents. When every cost is an integer and
    their sum is below 2^53, every load is an exact integer in any order of
    addition, so an eviction just subtracts the costs it removes; otherwise
    the loads are added up again in ascending index.
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    # randint(0, P) keeps over half of all words, so N draws read under 2N words
    # on average, and evictions add a few; a short first chunk only refills.
    words = _WordStream(rng, inst.P, min(CHUNK_WORDS, n * (2 * inst.N + 16)))
    checks = list(zip(range(1, inst.P + 1), inst.budget))
    cost, deps = inst.cost, inst.deps
    dependents: list[list[int]] = [[] for _ in range(inst.N)]
    for a, b in deps:
        dependents[b].append(a)
    span = range(inst.N)
    exact = all(float(c).is_integer() for c in cost) and sum(map(abs, cost)) < 2**53
    plans = np.empty((n, inst.N), dtype=int)
    for row in plans:
        release = words.ints(inst.N)
        changed = True
        while changed:
            changed = False
            for a, b in deps:
                if release[a] == 0:
                    continue
                if release[b] == 0 or release[b] > release[a]:
                    release[b] = release[a]
                    changed = True
        load = _release_loads(inst, release)
        groups: dict[int, list[int]] = {}  # release -> its members, ascending
        while True:
            for over, cap in checks:
                if load[over] > cap:
                    break
            else:
                break
            group = groups.get(over)
            if group is None:
                group = groups[over] = [i for i in span if release[i] == over]
            victim = group.pop(words.below(len(group)))
            release[victim] = 0
            dropped = [(victim, over)]
            for v, _ in dropped:
                for a in dependents[v]:
                    k = release[a]
                    if k:
                        release[a] = 0
                        dropped.append((a, k))
                        if k in groups:
                            groups[k].remove(a)
            if exact:
                for v, k in dropped:
                    load[k] -= cost[v]
            elif len(dropped) > 1:
                load = _release_loads(inst, release)
            else:  # only this release changed: re-add its members in order
                load[over] = 0.0
                for i in group:
                    load[over] += cost[i]
        row[:] = release
    words.restore()
    return plans


def _release_loads(inst: MonrpInstance, release: Sequence[int]) -> list[float]:
    """The cost of each release 0..P in one pass, its members' costs added
    one by one in ascending requirement index."""
    load = [0.0] * (inst.P + 1)
    for x, c in zip(release, inst.cost):
        load[x] += c
    return load


def as_problem(inst: MonrpInstance, name: str = "monrp") -> Problem:
    """Wrap an instance as a GENERATIVE Problem over release vectors, whose
    hooks take and return blocks of rows."""

    def sampler(rng: random.Random, n: int) -> np.ndarray:
        return sample_plans(inst, rng, n).astype(float)

    def evaluator(x: np.ndarray) -> np.ndarray:
        return evaluate_plan(inst, x.astype(int))

    def repairer(x: np.ndarray) -> np.ndarray:
        return repair_plans(inst, x.astype(int)).astype(float)

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
