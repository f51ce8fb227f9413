import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flashopt import monrp, nsga2
from flashopt.core import ObjectiveSchema, Problem, Sense
from flashopt.dominance import binary_dominates, front0
from flashopt.monrp import as_problem, generate, is_feasible
from flashopt.nsga2 import Nsga2Config, crowding_distance, pool_snapper, run_nsga2
from flashopt.synth import make_synthetic

from conftest import (
    reference_crowding_distance,
    reference_random_plan,
    reference_rank_and_crowd,
    reference_select,
    reference_snap,
)


def line_problem(n=1001):
    xs = [i / (n - 1) for i in range(n)]
    schema = ObjectiveSchema(("f1", "f2"), (Sense.MIN, Sense.MIN))
    return Problem.tabular(
        "tradeoff", ("x",), schema, [(x,) for x in xs], [(x, 1.0 - x) for x in xs]
    )


class TestCrowdingDistance:
    def test_two_points_all_infinite(self):
        y = np.array([(0.0, 1.0), (1.0, 0.0)])
        assert crowding_distance(y).tolist() == [math.inf, math.inf]

    def test_single_point_infinite(self):
        assert crowding_distance(np.array([(0.3, 0.7)])).tolist() == [math.inf]

    def test_evenly_spaced_middle_distance_two(self):
        dists = crowding_distance(np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]))
        assert dists[0] == math.inf and dists[2] == math.inf
        assert dists[1] == pytest.approx(2.0)

    def test_identical_objectives_interior_zero(self):
        dists = crowding_distance(np.ones((5, 2)))
        assert sum(1 for d in dists if math.isinf(d)) == 2
        assert all(d == 0.0 for d in dists if not math.isinf(d))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            crowding_distance(np.empty((0, 2)))


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
        rows = res.front.tolist()
        assert rows == sorted(rows)
        best = res.y[rows]  # raises unless every best row is evaluated
        for a in best:
            for b in best:
                assert not binary_dominates(a, b, prob.schema)

    def test_elitism_front0_survives(self):
        # Anyone non-dominated in parents+offspring must sit in the next
        # population, which the final front witnesses transitively: run one
        # generation and check front-0 of all 2N evaluations is in best.
        prob = make_synthetic("sphere2", 400)
        res = run_nsga2(prob, Nsga2Config(pop_size=20, generations=1, seed=4))
        full_front = front0(res.y, prob.schema)
        if len(full_front) <= 20:
            assert set(full_front.tolist()) <= set(res.front.tolist())

    def test_deterministic(self):
        prob = make_synthetic("step", 300)
        a = run_nsga2(prob.fresh(), Nsga2Config(pop_size=12, generations=4, seed=5))
        b = run_nsga2(prob.fresh(), Nsga2Config(pop_size=12, generations=4, seed=5))
        assert a.ids.tolist() == b.ids.tolist()
        assert a.y[a.front].tolist() == b.y[b.front].tolist()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Nsga2Config(pop_size=5)
        with pytest.raises(ValueError):
            Nsga2Config(generations=0)

    def test_generative_problem_needs_gene_values(self):
        sampled = []
        prob = Problem(
            name="g",
            decision_names=("x",),
            schema=ObjectiveSchema(("f",), (Sense.MIN,)),
            sampler=lambda rng, n: sampled.append(n) or np.zeros((n, 1)),
            evaluator=lambda x: x.copy(),
        )
        with pytest.raises(ValueError, match="g: no gene value sets available"):
            run_nsga2(prob, Nsga2Config(4, 1, seed=0))
        assert sampled == [] and prob.eval_count == 0

    def test_one_sort_per_generation(self, monkeypatch):
        calls = []
        real = nsga2.nondominated_sort

        def counting(y, schema, **kwargs):
            calls.append((len(y), kwargs.get("enough")))
            return real(y, schema, **kwargs)

        monkeypatch.setattr(nsga2, "nondominated_sort", counting)
        run_nsga2(make_synthetic("sphere2", 300), Nsga2Config(12, 5, seed=3))
        assert calls == [(12, 12)] + [(24, 12)] * 5

    def test_final_front_spans_wider_extremes_than_start(self):
        # On the (x, 1-x) trade-off the crowding pressure should widen the
        # explored extremes relative to the initial random population.
        gains = []
        for seed in range(20):
            prob = line_problem(1001)
            res = run_nsga2(prob, Nsga2Config(pop_size=20, generations=10, seed=seed))
            init = res.y[:20]
            first = init[front0(init, prob.schema), 0].tolist()
            final = res.y[res.front, 0].tolist()
            gains.append(
                (max(final) - min(final)) - (max(first) - min(first))
            )
        assert statistics.median(gains) > 0

    def test_monrp_offspring_remain_feasible(self):
        inst = generate(25, 4, 4, 20, 90, seed=6)
        prob = as_problem(inst)
        res = run_nsga2(prob, Nsga2Config(pop_size=10, generations=4, seed=7))
        assert res.evals == 50
        for plan in res.x.astype(int).tolist():
            assert is_feasible(inst, plan), plan

    def test_tabular_offspring_are_pool_rows(self):
        prob = make_synthetic("sphere2", 200)
        rows = [tuple(r) for r in prob.x.tolist()]
        res = run_nsga2(prob, Nsga2Config(pop_size=10, generations=3, seed=8))
        for i, row in zip(res.ids.tolist(), res.x.tolist()):
            assert rows[i] == tuple(row)

    @pytest.mark.parametrize("kind", ["tabular", "generative"])
    def test_start_is_drawn_through_sample_pool(self, monkeypatch, kind):
        draws = []
        real = Problem.sample_pool

        def spy(self, n, rng):
            draws.append((self.kind, n))
            return real(self, n, rng)

        monkeypatch.setattr(Problem, "sample_pool", spy)
        if kind == "tabular":
            prob = make_synthetic("step", 300)
        else:
            prob = as_problem(generate(12, 3, 2, 20, 50, seed=1))
        res = run_nsga2(prob, Nsga2Config(pop_size=8, generations=2, seed=4))
        assert draws == [(prob.kind, 8)]
        start = real(prob, 8, random.Random(4))
        assert res.ids[:8].tolist() == start.ids.tolist()
        assert np.array_equal(res.x[:8], start.x)

    def test_pop_above_the_table_is_rejected_by_the_draw(self):
        prob = make_synthetic("step", 6)
        with pytest.raises(ValueError, match="^step: sample of 8 exceeds pool size 6$"):
            run_nsga2(prob, Nsga2Config(pop_size=8, generations=1, seed=0))
        assert prob.eval_count == 0


@st.composite
def selection_cases(draw):
    """An objective matrix of 1-4 objectives of mixed sense on a 0..3 grid
    (so fronts share values and crowding ties are common), and an even
    survivor count no larger than the population."""
    m = draw(st.integers(1, 4))
    senses = draw(st.lists(st.sampled_from(Sense), min_size=m, max_size=m))
    schema = ObjectiveSchema(tuple(f"f{j}" for j in range(m)), tuple(senses))
    n = draw(st.integers(4, 120))
    y = draw(hnp.arrays(np.int8, (n, m), elements=st.integers(0, 3))).astype(float)
    pop_size = 2 * draw(st.integers(1, n // 2))
    return y, pop_size, schema


class TestMonrpRngContract:
    """The initial population is one batch draw from the run's own rng,
    which must leave it exactly where pop one-plan draws would: every
    crossover and mutation draw after it reads that state."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_run_as_scalar_sampling(self, monkeypatch, seed):
        inst = generate(30, 4, 3, 10, 80, seed=seed)
        config = Nsga2Config(pop_size=20, generations=3, seed=seed)
        batch = run_nsga2(as_problem(inst), config)
        monkeypatch.setattr(
            monrp, "sample_plans",
            lambda inst, rng, n: np.array([reference_random_plan(inst, rng) for _ in range(n)]),
        )
        scalar = run_nsga2(as_problem(inst), config)

        rng = random.Random(seed)
        start = [list(map(float, reference_random_plan(inst, rng))) for _ in range(20)]
        assert batch.x[:20].tolist() == start
        assert batch.x.tolist() == scalar.x.tolist()


class TestSelectAgainstReference:
    @given(selection_cases())
    @settings(max_examples=300, deadline=None)
    def test_one_sort_matches_sort_twice(self, case):
        y, pop_size, schema = case
        chosen, rank, crowd = nsga2._select(y, pop_size, schema)
        assert chosen.tolist() == reference_select(y, pop_size, schema)
        survivors = np.sort(chosen)
        want_rank, want_crowd = reference_rank_and_crowd(y[survivors], schema)
        assert rank[survivors].tolist() == want_rank
        assert crowd[survivors].tolist() == want_crowd
        assert crowding_distance(y).tolist() == reference_crowding_distance(y)


@st.composite
def labelled_fronts(draw):
    """An objective matrix of 1-4 objectives on a 0..3 grid, sometimes with
    a constant column, and a front label per row from a few labels, so
    1- and 2-row fronts and zero-span columns within a front are common;
    labels come in any row order."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 60))
    y = draw(hnp.arrays(np.int8, (n, m), elements=st.integers(0, 3))).astype(float)
    if draw(st.booleans()):
        y[:, draw(st.integers(0, m - 1))] = 1.0
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, draw(st.integers(0, n)))))
    return y, labels


class TestCrowdingByFront:
    @given(labelled_fronts())
    @settings(max_examples=300, deadline=None)
    def test_each_front_as_if_crowded_alone(self, case):
        y, labels = case
        got = crowding_distance(y, labels)
        for label in np.unique(labels):
            rows = np.flatnonzero(labels == label)
            assert got[rows].tolist() == reference_crowding_distance(y[rows])


@st.composite
def snap_cases(draw):
    """A table of 1-12 decision columns on a 0..3 grid, so duplicate rows
    and distance ties are common, sometimes with a zero-span column, and
    sometimes with a column whose distinct values are 2^-520 to 2^-560
    apart after scaling, where squared gaps go subnormal or underflow to 0;
    rows taken beforehand; and more children than the table has rows, each
    an exact copy of a table row (duplicates included) or a point of a
    half-step grid that reaches past the table's range, so the pool runs
    out and the snap falls back to used rows. Zeros in the table and the
    children may be -0.0, which is at distance 0 from 0.0. The children
    come in blocks of random sizes, empty ones included, so the pool may
    run out inside a block."""
    k = draw(st.integers(1, 12))
    n = draw(st.integers(1, 40))
    table = draw(hnp.arrays(np.int8, (n, k), elements=st.integers(0, 3)))
    table = table.astype(float)
    if draw(st.booleans()):
        table[:, draw(st.integers(0, k - 1))] = 2.0
    if draw(st.booleans()):
        j = draw(st.integers(0, k - 1))
        table[0, j] = 3.0
        tiny = table[:, j] * 2.0 ** -draw(st.integers(520, 560))
        table[:, j] = np.where(table[:, j] == 3.0, 1.0, tiny)
    used = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    count = n + draw(st.integers(1, 8))
    grid = draw(hnp.arrays(np.int8, (count, k), elements=st.integers(-1, 8))) / 2.0
    copies = draw(st.lists(st.integers(0, n - 1), min_size=count, max_size=count))
    copied = draw(hnp.arrays(bool, count))
    children = np.where(copied[:, None], table[copies], grid)
    table[(table == 0) & draw(hnp.arrays(bool, table.shape))] = -0.0
    children[(children == 0) & draw(hnp.arrays(bool, children.shape))] = -0.0
    cuts = sorted(draw(st.lists(st.integers(0, count), max_size=5)))
    return table, used, children, cuts


class TestPoolSnapper:
    @given(snap_cases())
    @settings(max_examples=300, deadline=None)
    def test_same_rows_as_reference(self, case):
        table, used, children, cuts = case
        want = reference_snap(table, used, list(children))
        snap = pool_snapper(table, used)
        blocks = [snap(block).tolist() for block in np.split(children, cuts)]
        assert [row for block in blocks for row in block] == want
        one = pool_snapper(table, used)
        assert [one(child[None]).tolist()[0] for child in children] == want

    def test_underflowing_gap_turns_the_lookup_off(self):
        # (2^-540)^2 underflows to 0, so row 0 is at distance 0 from a
        # child equal to row 1, and it is the lower index of the two.
        table = np.array([[2.0**-540], [0.0], [1.0]])
        assert reference_snap(table, [], [(0.0,)]) == [0]
        assert pool_snapper(table, [])(np.array([[0.0]])).tolist() == [0]

    def test_keys_too_wide_for_int64_turn_the_lookup_off(self):
        # 70 two-valued columns: a mixed-radix key of 2^70 values would
        # wrap in int64 and make rows 0 and 1, which differ only in column
        # 0, one key. Row bytes have no such limit, so the lookup serves.
        table = np.zeros((3, 70))
        table[0, 0] = table[2] = 1.0
        assert reference_snap(table, [], [table[1]]) == [1]
        assert pool_snapper(table, [])(table[[1]]).tolist() == [1]

    def test_overflowing_span_never_picks_a_taken_row(self):
        # The column's span overflows to inf, so every scaled distance is
        # NaN. An inf penalty added to a NaN left the taken row 0 at NaN,
        # the first minimum; taken rows are now excluded by assignment.
        table = np.array([[-1e308], [1e308], [0.0], [5.0]])
        children = np.array([[1e308], [1e308]])
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_snap(table, [0], list(children))
            got = pool_snapper(table, [0])(children).tolist()
        assert want == [1, 2]
        assert got == want

    def test_child_past_the_float_range_takes_an_open_row(self):
        # Every squared distance overflows to inf. The taken row 0 used to
        # be the first of the tied minima, as it is in reference_snap.
        table = np.array([[0.0], [1.0], [2.0]])
        with np.errstate(over="ignore"):
            assert reference_snap(table, [0], [(1e308,)]) == [0]
            assert pool_snapper(table, [0])(np.array([[1e308]])).tolist() == [1]

    def test_children_past_the_float_range_take_distinct_open_rows(self):
        # Every open distance is inf, so the first tied place is row 1,
        # which the first child took; the second child takes open row 2.
        table = np.array([[0.0], [1.0], [2.0]])
        children = np.array([[1e308], [1e308]])
        with np.errstate(over="ignore"):
            got = pool_snapper(table, [0])(children).tolist()
            one = pool_snapper(table, [0])
            each = [one(child[None]).tolist()[0] for child in children]
        assert got == each == [1, 2]

    def test_pool_runs_out_inside_a_block(self):
        table = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        children = np.array([[1.0, 0.0]] * 4 + [[0.0, 1.0], [0.4, 0.0]])
        want = reference_snap(table, [3], list(children))
        assert want == [1, 0, 2, 1, 2, 0]
        assert pool_snapper(table, [3])(children).tolist() == want
