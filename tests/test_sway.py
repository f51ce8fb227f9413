import numpy as np
import pytest

from flashopt.core import ObjectiveSchema, Pool, Problem, Sense
from flashopt.dominance import front0
from flashopt.sway import project, run_sway, two_distant_points
from flashopt.synth import make_synthetic

from conftest import whole_pool


def points_on_line(n, lo=0.0, hi=1.0):
    """Decision rows evenly spaced along a segment, and their ids."""
    x = np.array([(lo + (hi - lo) * i / (n - 1), 0.5) for i in range(n)])
    return x, np.arange(n)


class TestProject:
    def test_west_projects_to_zero_and_east_to_c(self):
        x, _ = points_on_line(9)
        pos = project(x, 0, 8)
        c = pos[-1]
        assert pos[0] == pytest.approx(0.0, abs=1e-12)
        assert c > 0
        # east sits at distance c from west by definition
        assert pos[-1] == pytest.approx(c)

    def test_midpoint_lands_halfway(self):
        x = np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        pos = project(x, 0, 2)
        assert pos[1] == pytest.approx(pos[2] / 2)

    def test_degenerate_poles_rejected(self):
        x = np.array([(1.0, 1.0), (2.0, 2.0), (1.5, 1.5)])
        with pytest.raises(ValueError, match="degenerate"):
            project(x, 2, 2)


class TestTwoDistantPoints:
    def test_line_segment_returns_extremes(self):
        x, ids = points_on_line(20)
        for seed in range(10):
            west, east = two_distant_points(x, ids, seed)
            assert {west, east} == {0, 19}

    def test_two_items(self):
        x, ids = points_on_line(2)
        assert set(two_distant_points(x, ids, 3)) == {0, 1}

    def test_deterministic(self):
        x, ids = points_on_line(30)
        assert two_distant_points(x, ids, 9) == two_distant_points(x, ids, 9)

    def test_ties_go_to_the_lowest_id(self):
        # Rows 0 and 2 coincide, as do rows 1 and 3: each pole is the row
        # of the lower id of its pair.
        x = np.array([(0.0, 0.0), (1.0, 1.0), (0.0, 0.0), (1.0, 1.0)])
        for seed in range(8):
            poles = two_distant_points(x, np.array([9, 5, 4, 7]), seed)
            assert set(poles) == {1, 2}

    def test_identical_items_have_no_poles(self):
        assert two_distant_points(np.tile([1.0, 2.0], (5, 1)), np.arange(5), 0) is None

    def test_one_item_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            two_distant_points(np.array([[1.0, 2.0]]), np.arange(1), 0)


class TestRunSway:
    def test_small_pool_fully_evaluated(self):
        # The poles, rows 0 and 5, trade off evenly, so neither wins and
        # the root emits the whole pool (measuring the poles again); row 3
        # is dominated by row 2.
        schema = ObjectiveSchema(("f1", "f2"), (Sense.MIN, Sense.MIN))
        objectives = [(0.0, 1.0), (0.3, 0.9), (0.5, 0.5), (0.6, 0.6), (0.9, 0.3), (1.0, 0.0)]
        prob = Problem.tabular("trade", ("x",), schema, [(i,) for i in range(6)], objectives)
        res = run_sway(prob, whole_pool(prob), 1)
        assert res.evals == 6 + 2
        assert sorted(set(res.ids.tolist())) == list(range(6))
        assert 3 not in res.ids[res.front]
        assert sorted(res.front.tolist()) == front0(res.y, prob.schema).tolist()

    def test_identical_objectives_emit_whole_pool(self):
        n = 40
        schema = ObjectiveSchema(("f1", "f2"), (Sense.MIN, Sense.MIN))
        rows = [(i / (n - 1),) for i in range(n)]
        prob = Problem.tabular("flat", ("x",), schema, rows, [(1.0, 2.0)] * n)
        res = run_sway(prob, whole_pool(prob), 4)
        # Two root poles, neither wins, then every pool member is measured
        # at the leaf (poles are measured again there).
        assert res.evals == n + 2

    def test_coinciding_decisions_measure_the_whole_pool(self):
        # Every decision row is the same, so the root has no poles: the
        # whole pool is measured once, as one leaf, with no pole evaluations.
        n = 9
        schema = ObjectiveSchema(("f1", "f2"), (Sense.MIN, Sense.MIN))
        prob = Problem.tabular("same", ("a", "b"), schema, [(0.5, 3.0)] * n, [(1.0, 2.0)] * n)
        pool = whole_pool(prob)
        assert two_distant_points(pool.x, pool.ids, 0) is None
        res = run_sway(prob, pool, 2)
        assert res.evals == n
        assert res.ids.tolist() == list(range(n))

    def test_gradient_consistent_pool_stays_cheap(self):
        prob = make_synthetic("line", 4096)
        res = run_sway(prob, whole_pool(prob), 5)
        # 2 log2(4096) + sqrt(4096) = 88
        assert res.evals <= 88 + 4

    def test_pool_of_two_measures_both_rows(self):
        prob = make_synthetic("line", 50)
        res = run_sway(prob, Pool(np.array([7, 30]), prob.x[[7, 30]]), 3)
        assert set(res.ids.tolist()) == {7, 30}
        assert res.evals == prob.eval_count

    def test_pool_of_one_rejected(self):
        prob = make_synthetic("line", 50)
        with pytest.raises(ValueError):
            run_sway(prob, Pool(np.arange(1), prob.x[:1]))

    def test_deterministic(self):
        prob = make_synthetic("sphere2", 300)
        a = run_sway(prob.fresh(), whole_pool(prob), 6)
        b = run_sway(prob.fresh(), whole_pool(prob), 6)
        assert a.ids.tolist() == b.ids.tolist()

    def test_no_point_emitted_twice(self):
        # Leaves partition a subset of the pool, so a point id can recur in
        # the evaluation log at most twice: once as a cached pole and once
        # inside its emitted leaf.
        prob = make_synthetic("sphere2", 500)
        res = run_sway(prob, whole_pool(prob), 11)
        counts = {}
        for i in res.ids.tolist():
            counts[i] = counts.get(i, 0) + 1
        assert all(c <= 2 for c in counts.values())
