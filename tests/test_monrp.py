import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashopt import monrp
from flashopt.core import Sense
from flashopt.monrp import (
    MonrpInstance,
    as_problem,
    evaluate_plan,
    generate,
    is_feasible,
    monrp_schema,
    repair_plan,
    repair_plans,
    sample_plans,
)

from conftest import reference_evaluate_plan, reference_random_plan, reference_repair_plan


def tiny_instance():
    # N=1, P=4, two clients: score = 4*5 + 1*2 = 22.
    return MonrpInstance(
        N=1,
        P=4,
        M=2,
        cost=(3.0,),
        risk=(2.0,),
        weight=(4.0, 1.0),
        importance=((5.0,), (2.0,)),
        deps=(),
        budget=(10.0, 10.0, 10.0, 10.0),
    )


def one_plan(inst, seed) -> list[int]:
    """A seeded random plan, repaired until it passes is_feasible."""
    return sample_plans(inst, random.Random(seed), 1)[0].tolist()


class TestGenerate:
    def test_overfunded_no_deps_variant(self):
        inst = generate(50, 4, 5, 0, 110, seed=2)
        assert inst.deps == ()
        total = sum(inst.cost)
        for b in inst.budget:
            assert b == pytest.approx(1.10 * total / 4)

    def test_underfunded_with_deps_variant(self):
        inst = generate(50, 4, 5, 4, 90, seed=2)
        assert len(inst.deps) == 2  # floor(4 * 50 / 100)
        total = sum(inst.cost)
        for b in inst.budget:
            assert b == pytest.approx(0.90 * total / 4)

    def test_full_dependency_percentage_stays_acyclic(self):
        inst = generate(10, 3, 2, 100, 120, seed=5)
        assert len(inst.deps) == 10
        # Kahn-style elimination must consume every node.
        incoming = {i: set() for i in range(inst.N)}
        for a, b in inst.deps:
            incoming[a].add(b)
        removed = set()
        while True:
            free = [i for i in range(inst.N) if i not in removed and incoming[i] <= removed]
            if not free:
                break
            removed.update(free)
        assert len(removed) == inst.N

    def test_attribute_ranges(self):
        inst = generate(200, 5, 8, 30, 100, seed=9)
        assert all(1 <= c <= 20 for c in inst.cost)
        assert all(1 <= r <= 10 for r in inst.risk)
        assert all(1 <= w <= 5 for w in inst.weight)
        assert all(0 <= v <= 5 for row in inst.importance for v in row)

    def test_deterministic(self):
        assert generate(30, 4, 3, 10, 105, seed=77) == generate(30, 4, 3, 10, 105, seed=77)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate(0, 4, 5, 0, 110, seed=1)
        with pytest.raises(ValueError):
            generate(50, 4, 5, 101, 110, seed=1)
        with pytest.raises(ValueError):
            generate(50, 4, 5, 0, 0, seed=1)


class TestInstanceValidation:
    """Sampling keeps a release while load <= budget and repair evicts
    until it holds, so a NaN budget or cost would make every sampled plan
    that touches it fail is_feasible."""

    @staticmethod
    def three(cost=(1.0, 2.0, 3.0), budget=(4.0,)):
        return MonrpInstance(
            N=3, P=1, M=1, cost=cost, risk=(1.0, 1.0, 1.0), weight=(1.0,),
            importance=((1.0, 2.0, 3.0),), deps=(), budget=budget,
        )

    @pytest.mark.parametrize("budget", [(float("nan"),), (0.0,), (-1.0,), (-float("inf"),)])
    def test_budget_must_be_positive(self, budget):
        with pytest.raises(ValueError, match="^budgets must be positive$"):
            self.three(budget=budget)

    def test_nan_cost_is_rejected(self):
        with pytest.raises(ValueError, match="^costs must not be NaN$"):
            self.three(cost=(1.0, float("nan"), 3.0))

    def test_boundary_values_still_sample_feasible_plans(self):
        for inst in (self.three(budget=(float("inf"),)), self.three(cost=(1.0, float("inf"), 3.0))):
            plans = sample_plans(inst, random.Random(1), 5).tolist()
            assert all(is_feasible(inst, plan) for plan in plans)


class TestEvaluatePlan:
    def test_schema_senses(self):
        schema = monrp_schema()
        assert schema.senses == (Sense.MAX, Sense.MAX, Sense.MIN)

    def test_all_zero_plan(self):
        inst = generate(12, 3, 2, 0, 110, seed=3)
        assert evaluate_plan(inst, [[0] * 12]).tolist() == [[0.0, 0.0, 0.0]]

    def test_single_requirement_closed_form(self):
        inst = tiny_instance()
        got = evaluate_plan(inst, [[1]])
        # f1 = score*(P - 1 + 1) - risk*1 = 22*4 - 2 = 86
        assert got.tolist() == [[86.0, 22.0, 3.0]]

    def test_delay_shrinks_value(self):
        inst = tiny_instance()
        first, last = evaluate_plan(inst, [[1], [4]])[:, 0].tolist()
        assert first - last == (inst.P - 1) * (22.0 + 2.0)

    def test_delay_delta_is_score_plus_risk(self):
        rng = random.Random(31)
        for _ in range(200):
            inst = generate(rng.randint(2, 25), rng.randint(2, 5), rng.randint(1, 4),
                            rng.choice([0, 10, 30]), 120, seed=rng.randrange(10**6))
            plan = [rng.randint(0, inst.P) for _ in range(inst.N)]
            implemented = [i for i, x in enumerate(plan) if 1 <= x < inst.P]
            if not implemented:
                continue
            i = rng.choice(implemented)
            delayed = list(plan)
            delayed[i] += 1
            before, after = evaluate_plan(inst, [plan, delayed])[:, 0].tolist()
            assert after - before == -(inst.scores[i] + inst.risk[i])

    def test_f3_monotone_under_additions(self):
        rng = random.Random(8)
        inst = generate(15, 3, 3, 0, 150, seed=2)
        plan = [rng.randint(0, 3) for _ in range(15)]
        base = evaluate_plan(inst, [plan])[0, 2]
        for i in range(15):
            if plan[i] == 0:
                grown = list(plan)
                grown[i] = 1
                f3 = evaluate_plan(inst, [grown])[0, 2]
                assert f3 >= base

    def test_length_mismatch(self):
        inst = tiny_instance()
        with pytest.raises(ValueError):
            evaluate_plan(inst, [[1, 2]])

    @given(
        st.integers(1, 15),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(0, 50),
        st.integers(10, 150),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_bits_as_reference_on_generated(self, n, p, m, dep, funding, seed, data):
        self.assert_same_bits_as_reference(generate(n, p, m, dep, funding, seed=seed), data)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_bits_as_reference_on_fractional_costs(self, data):
        self.assert_same_bits_as_reference(fractional_instance(data), data)

    @staticmethod
    def assert_same_bits_as_reference(inst, data):
        # tobytes tells -0.0 from 0.0; every block holds an all-zero row.
        plan = st.lists(st.integers(0, inst.P), min_size=inst.N, max_size=inst.N)
        plans = data.draw(st.lists(plan, max_size=8))
        plans.insert(data.draw(st.integers(0, len(plans))), [0] * inst.N)
        want = np.array([reference_evaluate_plan(inst, plan) for plan in plans])
        assert evaluate_plan(inst, np.array(plans)).tobytes() == want.tobytes()


class TestIsFeasible:
    def test_empty_plan_feasible(self):
        inst = generate(10, 4, 2, 50, 90, seed=1)
        assert is_feasible(inst, [0] * 10)

    def test_missing_dependency_flagged(self):
        inst = MonrpInstance(
            N=2, P=2, M=1,
            cost=(1.0, 1.0), risk=(0.0, 0.0), weight=(1.0,),
            importance=((1.0, 1.0),), deps=((0, 1),),
            budget=(10.0, 10.0),
        )
        assert not is_feasible(inst, [1, 0])

    def test_late_dependency_flagged(self):
        inst = MonrpInstance(
            N=2, P=2, M=1,
            cost=(1.0, 1.0), risk=(0.0, 0.0), weight=(1.0,),
            importance=((1.0, 1.0),), deps=((0, 1),),
            budget=(10.0, 10.0),
        )
        assert not is_feasible(inst, [1, 2])
        assert is_feasible(inst, [2, 1])

    def test_budget_boundary_inclusive(self):
        inst = MonrpInstance(
            N=2, P=1, M=1,
            cost=(4.0, 6.0), risk=(0.0, 0.0), weight=(1.0,),
            importance=((1.0, 1.0),), deps=(),
            budget=(10.0,),
        )
        assert is_feasible(inst, [1, 1])

    def test_over_budget_flagged(self):
        inst = MonrpInstance(
            N=2, P=1, M=1,
            cost=(4.0, 7.0), risk=(0.0, 0.0), weight=(1.0,),
            importance=((1.0, 1.0),), deps=(),
            budget=(10.0,),
        )
        assert not is_feasible(inst, [1, 1])

    @given(
        st.integers(1, 15),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(0, 50),
        st.integers(10, 150),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_feasible_iff_repair_keeps_the_plan(self, n, p, m, dep, funding, seed, data):
        # Repair only unimplements requirements, and only to mend a broken
        # budget or precedence, so it returns a plan unchanged iff it passes.
        inst = generate(n, p, m, dep, funding, seed=seed)
        release = data.draw(st.lists(st.integers(0, p), min_size=n, max_size=n))
        assert is_feasible(inst, release) == (repair_plan(inst, release) == release)

    @given(
        st.integers(1, 15),
        st.integers(1, 4),
        st.integers(0, 60),
        st.integers(10, 150),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_answer_as_the_definition(self, n, p, dep, funding, seed, data):
        # Every release within budget, and every edge of an implemented
        # requirement met by a dependency no later than it; the plan is not
        # changed by the check.
        inst = generate(n, p, 2, dep, funding, seed=seed)
        release = data.draw(st.lists(st.integers(0, p), min_size=n, max_size=n))
        given_plan = list(release)
        loads = [sum(c for c, x in zip(inst.cost, release) if x == k) for k in range(1, p + 1)]
        fits = all(load <= cap for load, cap in zip(loads, inst.budget))
        ordered = all(release[a] == 0 or 0 < release[b] <= release[a] for a, b in inst.deps)
        assert is_feasible(inst, release) == (fits and ordered)
        assert release == given_plan


class TestRandomValidPlan:
    def test_always_feasible(self):
        inst = generate(30, 4, 5, 20, 90, seed=13)
        for seed in range(300):
            plan = one_plan(inst, seed)
            assert is_feasible(inst, plan), seed

    def test_deterministic(self):
        inst = generate(30, 4, 5, 20, 90, seed=13)
        assert one_plan(inst, 5) == one_plan(inst, 5)

    def test_no_repair_needed_returns_raw_assignment(self):
        inst = generate(12, 3, 2, 0, 10_000, seed=4)
        seed = 21
        rng = random.Random(seed)
        raw = [rng.randint(0, inst.P) for _ in range(inst.N)]
        assert one_plan(inst, seed) == raw


class TestRepairPlan:
    @given(
        st.integers(1, 15),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(0, 50),
        st.integers(10, 150),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_output_feasible_and_idempotent(self, n, p, m, dep, funding, seed, data):
        inst = generate(n, p, m, dep, funding, seed=seed)
        release = data.draw(st.lists(st.integers(0, p), min_size=n, max_size=n))
        repaired = repair_plan(inst, release)
        assert is_feasible(inst, repaired)
        assert repair_plan(inst, repaired) == repaired

    def test_outputs_feasible(self):
        rng = random.Random(99)
        inst = generate(25, 4, 3, 30, 80, seed=6)
        for _ in range(200):
            plan = [rng.randint(0, 4) for _ in range(25)]
            assert is_feasible(inst, repair_plan(inst, plan)), plan

    def test_feasible_plan_untouched(self):
        inst = generate(20, 3, 3, 10, 110, seed=8)
        plan = one_plan(inst, 3)
        assert repair_plan(inst, plan) == plan

    @given(
        st.integers(1, 15),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(0, 50),
        st.integers(10, 150),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_plan_as_reference_on_generated(self, n, p, m, dep, funding, seed, data):
        inst = generate(n, p, m, dep, funding, seed=seed)
        release = data.draw(st.lists(st.integers(0, p), min_size=n, max_size=n))
        assert repair_plan(inst, release) == reference_repair_plan(inst, release)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_plan_as_reference_on_fractional_costs(self, data):
        inst = fractional_instance(data)
        release = data.draw(st.lists(st.integers(0, inst.P), min_size=inst.N, max_size=inst.N))
        assert repair_plan(inst, release) == reference_repair_plan(inst, release)

    @given(
        st.integers(1, 15),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(0, 60),
        st.integers(10, 150),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_block_matches_reference_row_by_row_on_generated(
        self, n, p, m, dep, funding, seed, data
    ):
        inst = generate(n, p, m, dep, funding, seed=seed)
        plan = st.lists(st.integers(0, p), min_size=n, max_size=n)
        plans = data.draw(st.lists(plan, min_size=1, max_size=12))
        got = repair_plans(inst, np.array(plans))
        assert got.tolist() == [reference_repair_plan(inst, row) for row in plans]

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_block_matches_reference_row_by_row_on_fractional_costs(self, data):
        inst = fractional_instance(data)
        plan = st.lists(st.integers(0, inst.P), min_size=inst.N, max_size=inst.N)
        plans = data.draw(st.lists(plan, min_size=1, max_size=12))
        got = repair_plans(inst, plans)
        assert got.tolist() == [reference_repair_plan(inst, row) for row in plans]

    def test_block_leaves_its_input_alone(self):
        inst = generate(20, 3, 2, 30, 40, seed=5)
        plans = np.random.default_rng(5).integers(0, 4, size=(30, 20))
        kept = plans.copy()
        repair_plans(inst, plans)
        assert np.array_equal(plans, kept)

    def test_block_of_wrong_width_rejected(self):
        inst = generate(5, 2, 2, 0, 90, seed=1)
        with pytest.raises(ValueError, match="plan length 4"):
            repair_plans(inst, np.zeros((3, 4), dtype=int))

    def test_loads_add_in_ascending_index(self):
        # 0.1 + 0.2 + 0.3 > 0.6 in floats, although 0.3 + 0.2 + 0.1 == 0.6.
        inst = MonrpInstance(
            N=3, P=1, M=1,
            cost=(0.1, 0.2, 0.3), risk=(0.0, 0.0, 0.0), weight=(1.0,),
            importance=((3.0, 1.0, 2.0),), deps=(),
            budget=(0.6,),
        )
        assert repair_plan(inst, [1, 1, 1]) == [1, 0, 1]
        assert reference_repair_plan(inst, [1, 1, 1]) == [1, 0, 1]

    def test_release_outside_range_rejected(self):
        inst = generate(5, 2, 2, 0, 90, seed=1)
        with pytest.raises(ValueError, match="outside 0..2"):
            repair_plan(inst, [0, 1, 3, 0, 0])


def fractional_instance(data) -> MonrpInstance:
    """A hand-built instance whose costs are not integers, so the order in
    which a release's costs are added can decide whether it is over budget."""
    n = data.draw(st.integers(1, 12))
    p = data.draw(st.integers(1, 4))
    grain = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.1, 2.35, 1 / 3])
    cost = tuple(data.draw(st.lists(grain, min_size=n, max_size=n)))
    importance = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    edges = [(a, b) for a in range(n) for b in range(a)]
    deps = data.draw(st.lists(st.sampled_from(edges), max_size=n, unique=True)) if edges else []
    # Round budgets that sums of these costs reach in one order but not in another.
    budget = data.draw(st.sampled_from([0.3, 0.6, 0.7, 1.0, 1.3, 1.6, 2.0, 3.0, 6.0]))
    return MonrpInstance(
        N=n, P=p, M=1,
        cost=cost,
        risk=(1.0,) * n,
        weight=(1.0,),
        importance=(tuple(float(v) for v in importance),),
        deps=tuple(deps),
        budget=(budget,) * p,
    )


class TestSamplePlans:
    """sample_plans draws word-exactly what reference_random_plan draws,
    call by call, from the same random.Random, and leaves it in the same
    state."""

    @staticmethod
    def assert_same_as_reference(inst, seed, n, warmup=0):
        ours, theirs = random.Random(seed), random.Random(seed)
        for rng in (ours, theirs):
            for _ in range(warmup):
                rng.random()
            rng.gauss(0.0, 1.0)  # leaves a cached second normal in the state
        plans = sample_plans(inst, ours, n)
        assert plans.shape == (n, inst.N)
        assert plans.tolist() == [reference_random_plan(inst, theirs) for _ in range(n)]
        assert ours.getstate() == theirs.getstate()
        return plans

    @given(
        st.integers(1, 15),
        st.integers(1, 4),
        st.integers(0, 50),
        st.integers(10, 150),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(0, 1300),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_plans_and_state_as_reference(self, n, p, dep, funding, inst_seed, seed, count, warmup):
        inst = generate(n, p, 2, dep, funding, seed=inst_seed)
        self.assert_same_as_reference(inst, seed, count, warmup)

    @pytest.mark.parametrize("chunk", [1, 3, 7, 64])
    def test_plans_and_evictions_cross_chunk_refills(self, monkeypatch, chunk):
        monkeypatch.setattr(monrp, "CHUNK_WORDS", chunk)
        inst = generate(30, 4, 3, 10, 80, seed=2)
        self.assert_same_as_reference(inst, 17, 60)

    def test_plans_straddle_every_refill(self, monkeypatch):
        # A chunk a few words longer than one plan's N draws: nearly every
        # plan's draws run past a chunk's end, and its evictions read words
        # that the next plan's draws must skip.
        monkeypatch.setattr(monrp, "CHUNK_WORDS", 23)
        inst = generate(20, 4, 3, 30, 30, seed=9)
        self.assert_same_as_reference(inst, 5, 80)

    def test_costs_past_two_to_the_53_add_again(self):
        # 2^53 + 1.0 + 1.0 adds up to 2^53 in ascending order. Once the 2^53
        # requirement goes, the release holds 1.0 + 1.0 = 2.0 > 1.5 and must
        # evict again; subtracting 2^53 from the load would give 0.0 and
        # keep both. Costs this large fail the exact-integer test, so the
        # loads are added up again.
        inst = MonrpInstance(
            N=3, P=1, M=1,
            cost=(2.0**53, 1.0, 1.0), risk=(0.0,) * 3, weight=(1.0,),
            importance=((1.0,) * 3,), deps=(),
            budget=(1.5,),
        )
        plans = self.assert_same_as_reference(inst, 2, 300)
        assert [0, 1, 1] not in plans.tolist()

    @given(st.data(), st.integers(0, 2**32 - 1), st.integers(1, 20))
    @settings(max_examples=100, deadline=None)
    def test_same_as_reference_on_huge_integer_costs(self, data, seed, count):
        n = data.draw(st.integers(1, 8))
        p = data.draw(st.integers(1, 3))
        grain = st.sampled_from([1.0, 2.0, 3.0, 2.0**52, 2.0**53, 2.0**53 + 2.0])
        edges = [(a, b) for a in range(n) for b in range(a)]
        inst = MonrpInstance(
            N=n, P=p, M=1,
            cost=tuple(data.draw(st.lists(grain, min_size=n, max_size=n))),
            risk=(1.0,) * n, weight=(1.0,), importance=((1.0,) * n,),
            deps=tuple(data.draw(st.lists(st.sampled_from(edges), max_size=n, unique=True)))
            if edges else (),
            budget=(data.draw(st.sampled_from([1.5, 3.0, 2.0**52, 2.0**53, 2.0**54])),) * p,
        )
        self.assert_same_as_reference(inst, seed, count)

    def test_heavy_evictions_at_low_funding(self):
        inst = generate(15, 4, 3, 50, 10, seed=5)
        plans = self.assert_same_as_reference(inst, 8, 300)
        # about 12 of a plan's 15 requirements start in a release; under one stays
        assert np.count_nonzero(plans) < len(plans)

    def test_loads_add_in_ascending_index(self):
        # Once the 4.0 requirement is evicted, 0.1 + 0.2 + 0.3 > 0.6 still
        # asks for a second eviction, which 0.3 + 0.2 + 0.1 == 0.6 would not.
        inst = MonrpInstance(
            N=4, P=1, M=1,
            cost=(0.1, 0.2, 0.3, 4.0), risk=(0.0,) * 4, weight=(1.0,),
            importance=((1.0,) * 4,), deps=(),
            budget=(0.6,),
        )
        plans = sample_plans(inst, random.Random(4), 300)
        assert [1, 1, 1, 0] not in plans.tolist()
        self.assert_same_as_reference(inst, 4, 300)

    @given(st.data(), st.integers(0, 2**32 - 1), st.integers(1, 20))
    @settings(max_examples=100, deadline=None)
    def test_same_as_reference_on_fractional_costs(self, data, seed, count):
        self.assert_same_as_reference(fractional_instance(data), seed, count)

    def test_acceptance_scale_pool(self):
        inst = generate(50, 4, 5, 4, 90, seed=41)
        self.assert_same_as_reference(inst, 41, 2000)

    def test_empty_sample_rejected(self):
        inst = generate(5, 2, 2, 0, 90, seed=1)
        with pytest.raises(ValueError, match="at least 1"):
            sample_plans(inst, random.Random(0), 0)


class TestAsProblem:
    """The problem's hooks take whole blocks and give what their rows give
    one at a time."""

    def test_block_evaluation_equals_row_by_row(self):
        inst = generate(30, 4, 3, 10, 80, seed=2)
        rng = random.Random(6)
        x = np.array([[rng.randint(0, inst.P) for _ in range(inst.N)] for _ in range(40)], float)
        prob = as_problem(inst)
        block = prob.evaluate(np.arange(40), x)
        rows = [prob.evaluate([k], x[[k]]) for k in range(40)]
        assert block.tobytes() == np.concatenate(rows).tobytes()
        assert prob.eval_count == 80

    def test_block_repair_equals_row_by_row(self):
        inst = generate(30, 4, 3, 10, 80, seed=2)
        rng = random.Random(7)
        plans = [[rng.randint(0, inst.P) for _ in range(inst.N)] for _ in range(40)]
        repaired = as_problem(inst).repairer(np.array(plans, dtype=float))
        assert repaired.tolist() == [list(map(float, repair_plan(inst, p))) for p in plans]
