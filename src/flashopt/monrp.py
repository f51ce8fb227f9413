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
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import ObjectiveSchema, ObjectiveVector, Problem, Sense


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
        self._scores: tuple[float, ...] | None = None

    def scores(self) -> tuple[float, ...]:
        """Per-requirement weighted importance, cached."""
        if self._scores is None:
            self._scores = tuple(
                sum(self.weight[j] * self.importance[j][i] for j in range(self.M))
                for i in range(self.N)
            )
        return self._scores


@dataclass(frozen=True)
class ReleasePlan:
    """release[i] in 0..P; 0 means requirement i is not implemented."""

    release: tuple[int, ...]


@dataclass(frozen=True)
class Violation:
    kind: str  # "budget" or "precedence"
    index: int  # release number or dependent requirement
    detail: str


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


def evaluate_plan(inst: MonrpInstance, plan: ReleasePlan) -> ObjectiveVector:
    """Objective values of a plan; feasibility is not checked here."""
    if len(plan.release) != inst.N:
        raise ValueError(f"plan length {len(plan.release)} != N={inst.N}")
    scores = inst.scores()
    f1 = 0.0
    f2 = 0.0
    f3 = 0.0
    for i, x in enumerate(plan.release):
        if x == 0:
            continue
        f1 += scores[i] * (inst.P - x + 1) - inst.risk[i] * x
        f2 += scores[i]
        f3 += inst.cost[i]
    return ObjectiveVector((f1, f2, f3))


def is_feasible(inst: MonrpInstance, plan: ReleasePlan) -> tuple[bool, list[Violation]]:
    """Check budgets per release and dependency precedence.

    Infeasibility is reported, not raised: the second element lists every
    violation found.
    """
    if len(plan.release) != inst.N:
        raise ValueError(f"plan length {len(plan.release)} != N={inst.N}")
    violations: list[Violation] = []
    load = [0.0] * (inst.P + 1)
    for i, x in enumerate(plan.release):
        if not 0 <= x <= inst.P:
            raise ValueError(f"release {x} for requirement {i} outside 0..{inst.P}")
        load[x] += inst.cost[i]
    for k in range(1, inst.P + 1):
        if load[k] > inst.budget[k - 1]:
            violations.append(
                Violation("budget", k, f"release {k} costs {load[k]} > {inst.budget[k - 1]}")
            )
    for a, b in inst.deps:
        if plan.release[a] == 0:
            continue
        if plan.release[b] == 0 or plan.release[b] > plan.release[a]:
            violations.append(
                Violation("precedence", a, f"requirement {a} needs {b} no later than it")
            )
    return (not violations), violations


def _drop_precedence_violators(inst: MonrpInstance, release: list[int]) -> None:
    """Unimplement requirements whose dependencies are missing or too late.

    Dropping a requirement can strand its own dependents, so iterate to a
    fixpoint; each pass only removes requirements, so this terminates.
    """
    changed = True
    while changed:
        changed = False
        for a, b in inst.deps:
            if release[a] == 0:
                continue
            if release[b] == 0 or release[b] > release[a]:
                release[a] = 0
                changed = True


def repair_plan(inst: MonrpInstance, plan: ReleasePlan) -> ReleasePlan:
    """Deterministic feasibility repair used on search offspring.

    Precedence violators are dropped, then over-budget releases evict their
    lowest-score requirements (ties to the lowest index). Eviction can break
    precedence again, so the two passes alternate until the plan checks out.
    """
    if len(plan.release) != inst.N:
        raise ValueError(f"plan length {len(plan.release)} != N={inst.N}")
    release = list(plan.release)
    scores = inst.scores()
    while True:
        _drop_precedence_violators(inst, release)
        evicted = False
        for k in range(1, inst.P + 1):
            members = [i for i, x in enumerate(release) if x == k]
            load = sum(inst.cost[i] for i in members)
            members.sort(key=lambda i: (scores[i], i))
            while load > inst.budget[k - 1] and members:
                victim = members.pop(0)
                release[victim] = 0
                load -= inst.cost[victim]
                evicted = True
        if not evicted:
            break
    return ReleasePlan(tuple(release))


def random_valid_plan(inst: MonrpInstance, seed: int) -> ReleasePlan:
    """A seeded random plan, repaired until it passes is_feasible."""
    return _random_plan(inst, random.Random(seed))


def _random_plan(inst: MonrpInstance, rng: random.Random) -> ReleasePlan:
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
            load = sum(inst.cost[i] for i in members)
            if load > inst.budget[k - 1]:
                over = (k, members)
                break
        if over is None:
            break
        _, members = over
        victim = members[rng.randrange(len(members))]
        release[victim] = 0
        _drop_precedence_violators(inst, release)
    return ReleasePlan(tuple(release))


def as_problem(inst: MonrpInstance, name: str = "monrp") -> Problem:
    """Wrap an instance as a GENERATIVE Problem over release vectors."""
    arity = inst.N

    def sampler(rng: random.Random) -> tuple[float, ...]:
        return tuple(float(v) for v in _random_plan(inst, rng).release)

    def evaluator(decisions: tuple[float, ...]) -> tuple[float, ...]:
        plan = ReleasePlan(tuple(int(v) for v in decisions))
        return evaluate_plan(inst, plan).values

    def repairer(decisions: tuple[float, ...]) -> tuple[float, ...]:
        plan = ReleasePlan(tuple(int(v) for v in decisions))
        return tuple(float(v) for v in repair_plan(inst, plan).release)

    gene_values = [tuple(float(v) for v in range(inst.P + 1))] * arity
    return Problem.generative(
        name,
        [f"r{i}" for i in range(arity)],
        monrp_schema(),
        sampler,
        evaluator,
        repairer=repairer,
        gene_values=gene_values,
    )
