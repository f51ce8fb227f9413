import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashopt import nsga2
from flashopt.core import (
    DecisionPoint,
    EvaluatedPoint,
    ObjectiveSchema,
    ObjectiveVector,
    Problem,
    Sense,
)
from flashopt.dominance import binary_dominates, front0
from flashopt.monrp import ReleasePlan, as_problem, generate, is_feasible
from flashopt.nsga2 import Nsga2Config, crowding_distance, run_nsga2
from flashopt.synth import make_synthetic

from conftest import (
    make_points,
    reference_crowding_distance,
    reference_rank_and_crowd,
    reference_select,
)


def line_problem(n=1001):
    xs = [i / (n - 1) for i in range(n)]
    schema = ObjectiveSchema(("f1", "f2"), (Sense.MIN, Sense.MIN))
    return Problem.tabular(
        "tradeoff", ("x",), schema, [(x,) for x in xs], [(x, 1.0 - x) for x in xs]
    )


class TestCrowdingDistance:
    def test_two_points_all_infinite(self, min2):
        points = make_points([(0, 1), (1, 0)])
        assert crowding_distance(points, min2) == [math.inf, math.inf]

    def test_single_point_infinite(self, min2):
        points = make_points([(0.3, 0.7)])
        assert crowding_distance(points, min2) == [math.inf]

    def test_evenly_spaced_middle_distance_two(self, min2):
        points = make_points([(0, 0), (1, 1), (2, 2)])
        dists = crowding_distance(points, min2)
        assert dists[0] == math.inf and dists[2] == math.inf
        assert dists[1] == pytest.approx(2.0)

    def test_identical_objectives_interior_zero(self, min2):
        points = make_points([(1, 1)] * 5)
        dists = crowding_distance(points, min2)
        assert sum(1 for d in dists if math.isinf(d)) == 2
        assert all(d == 0.0 for d in dists if not math.isinf(d))

    def test_empty_rejected(self, min2):
        with pytest.raises(ValueError):
            crowding_distance([], min2)


class TestRunNsga2:
    def test_eval_budget_identity_small(self):
        prob = line_problem(200)
        res = run_nsga2(prob, Nsga2Config(pop_size=4, generations=1, seed=1))
        assert res.evals == 8
        assert prob.eval_count == 8

    def test_eval_budget_identity_default_shape(self):
        prob = line_problem(500)
        res = run_nsga2(prob, Nsga2Config(pop_size=10, generations=7, seed=2))
        assert res.evals == 10 * (7 + 1)

    def test_best_is_nondominated_subset_of_evaluated(self):
        prob = make_synthetic("sphere2", 300)
        res = run_nsga2(prob, Nsga2Config(pop_size=16, generations=5, seed=3))
        eval_ids = {e.eval_index for e in res.evaluated}
        for b in res.best:
            assert b.eval_index in eval_ids
        for a in res.best:
            for b in res.best:
                assert not binary_dominates(a.objectives, b.objectives, prob.schema)

    def test_elitism_front0_survives(self):
        # Anyone non-dominated in parents+offspring must sit in the next
        # population, which the final front witnesses transitively: run one
        # generation and check front-0 of all 2N evaluations is in best.
        prob = make_synthetic("sphere2", 400)
        res = run_nsga2(prob, Nsga2Config(pop_size=20, generations=1, seed=4))
        full_front = front0(res.evaluated, prob.schema)
        if len(full_front) <= 20:
            best_ids = {e.eval_index for e in res.best}
            for e in full_front:
                assert e.eval_index in best_ids

    def test_deterministic(self):
        prob = make_synthetic("step", 300)
        a = run_nsga2(prob.fresh(), Nsga2Config(pop_size=12, generations=4, seed=5))
        b = run_nsga2(prob.fresh(), Nsga2Config(pop_size=12, generations=4, seed=5))
        assert [e.point.id for e in a.evaluated] == [e.point.id for e in b.evaluated]
        assert [e.objectives for e in a.best] == [e.objectives for e in b.best]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Nsga2Config(pop_size=5)
        with pytest.raises(ValueError):
            Nsga2Config(generations=0)

    def test_one_sort_per_generation(self, monkeypatch):
        calls = []
        real = nsga2.nondominated_sort

        def counting(points, schema):
            calls.append(len(points))
            return real(points, schema)

        monkeypatch.setattr(nsga2, "nondominated_sort", counting)
        run_nsga2(make_synthetic("sphere2", 300), Nsga2Config(12, 5, seed=3))
        assert calls == [12] + [24] * 5

    def test_final_front_spans_wider_extremes_than_start(self):
        # On the (x, 1-x) trade-off the crowding pressure should widen the
        # explored extremes relative to the initial random population.
        gains = []
        for seed in range(20):
            prob = line_problem(1001)
            res = run_nsga2(prob, Nsga2Config(pop_size=20, generations=10, seed=seed))
            init = res.evaluated[:20]
            first = [e.objectives.values[0] for e in front0(init, prob.schema)]
            final = [e.objectives.values[0] for e in res.best]
            gains.append(
                (max(final) - min(final)) - (max(first) - min(first))
            )
        assert statistics.median(gains) > 0

    def test_monrp_offspring_remain_feasible(self):
        inst = generate(25, 4, 4, 20, 90, seed=6)
        prob = as_problem(inst)
        res = run_nsga2(prob, Nsga2Config(pop_size=10, generations=4, seed=7))
        assert res.evals == 50
        for e in res.evaluated:
            plan = ReleasePlan(tuple(int(v) for v in e.point.decisions))
            ok, violations = is_feasible(inst, plan)
            assert ok, violations

    def test_tabular_offspring_are_pool_rows(self):
        prob = make_synthetic("sphere2", 200)
        rows = {p.decisions for p in prob.pool()}
        res = run_nsga2(prob, Nsga2Config(pop_size=10, generations=3, seed=8))
        for e in res.evaluated:
            assert e.point.decisions in rows


@st.composite
def selection_cases(draw):
    """1-4 objectives of mixed sense on a 0..3 grid (so fronts share values
    and crowding ties are common), eval_index shuffled against position,
    and an even survivor count no larger than the population."""
    m = draw(st.integers(1, 4))
    senses = draw(st.lists(st.sampled_from(Sense), min_size=m, max_size=m))
    schema = ObjectiveSchema(tuple(f"f{j}" for j in range(m)), tuple(senses))
    n = draw(st.integers(4, 120))
    grid = st.sampled_from([0.0, 1.0, 2.0, 3.0])
    vectors = draw(
        st.lists(st.tuples(*[grid] * m), min_size=n, max_size=n)
    )
    evals = draw(st.permutations(range(n)))
    points = [
        EvaluatedPoint(DecisionPoint(k, (float(k),)), ObjectiveVector(v), e)
        for k, (v, e) in enumerate(zip(vectors, evals))
    ]
    pop_size = 2 * draw(st.integers(1, n // 2))
    return points, pop_size, schema


class TestSelectAgainstReference:
    @given(selection_cases())
    @settings(max_examples=300, deadline=None)
    def test_one_sort_matches_sort_twice(self, case):
        points, pop_size, schema = case
        chosen, rank, crowd = nsga2._select(points, pop_size, schema)
        survivors = reference_select(points, pop_size, schema)
        assert [points[k].eval_index for k in chosen] == [
            p.eval_index for p in survivors
        ]
        want_rank, want_crowd = reference_rank_and_crowd(survivors, schema)
        assert [rank[k] for k in chosen] == want_rank
        assert [crowd[k] for k in chosen] == want_crowd
        assert crowding_distance(points, schema) == reference_crowding_distance(
            points, schema
        )
