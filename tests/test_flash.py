import numpy as np
import pytest

from flashopt.cart import fit_arrays
from flashopt.core import ObjectiveSchema, Problem, Sense
from flashopt.dominance import front0
from flashopt.flash import FlashConfig, run_flash, what_to_evaluate_next
from flashopt.synth import make_synthetic

from conftest import brute_front_partition, brute_indicator_dominates, senses_of


def grid_problem(n=60, constant=False):
    """One decision on a grid; objectives (x, 1-x) both minimized, or a
    constant pair when requested."""
    xs = [i / (n - 1) for i in range(n)]
    schema = ObjectiveSchema(("f1", "f2"), (Sense.MIN, Sense.MIN))
    rows = [(x,) for x in xs]
    if constant:
        objectives = [(1.0, 1.0) for _ in xs]
    else:
        objectives = [(x, 1.0 - x) for x in xs]
    return Problem.tabular("grid", ("x",), schema, rows, objectives)


def constant_model(value, rows=4):
    return fit_arrays(np.arange(rows, dtype=float).reshape(rows, 1), np.full(rows, value))


def pick(candidates, models, schema):
    """The candidate point whose row what_to_evaluate_next returns."""
    matrix = np.array([c.decisions for c in candidates], dtype=float)
    ids = [c.id for c in candidates]
    return candidates[what_to_evaluate_next(matrix, ids, models, schema)]


class TestRunFlash:
    def test_pool_equal_to_initial_sample_stops_immediately(self):
        prob = grid_problem(20)
        res = run_flash(prob, prob.pool(), FlashConfig(size0=20, seed=1))
        assert res.evals == 20
        assert res.trace == []
        got = sorted(e.point.id for e in res.best)
        want = sorted(e.point.id for e in front0(res.evaluated, prob.schema))
        assert got == want

    def test_constant_objectives_exhaust_the_pool(self):
        prob = grid_problem(30, constant=True)
        res = run_flash(prob, prob.pool(), FlashConfig(size0=5, lives=3, seed=2))
        # Every evaluation ties the whole front, so the front keeps growing
        # and no life is ever lost.
        assert res.evals == 30
        assert res.trace[-1].lives == 3
        assert len(res.best) == 30

    def test_one_eval_per_iteration(self):
        prob = grid_problem(40)
        res = run_flash(prob, prob.pool(), FlashConfig(size0=10, lives=2, seed=3))
        assert res.evals == 10 + len(res.trace)

    def test_budget_bounds(self):
        prob = grid_problem(50)
        res = run_flash(prob, prob.pool(), FlashConfig(size0=15, seed=4))
        assert 15 <= res.evals <= 50

    def test_lives_never_increase(self):
        prob = make_synthetic("sphere2", 120)
        res = run_flash(prob, prob.pool(), FlashConfig(size0=10, lives=6, seed=5))
        lives = [6] + [t.lives for t in res.trace]
        for before, after in zip(lives, lives[1:]):
            assert after in (before, before - 1)

    def test_stagnant_iterations_equal_lives_spent(self):
        prob = make_synthetic("sphere2", 120)
        config = FlashConfig(size0=10, lives=6, seed=6)
        res = run_flash(prob, prob.pool(), config)
        final_lives = res.trace[-1].lives if res.trace else config.lives
        # An iteration that kept the front id-set unchanged is exactly one
        # that cost a life.
        lives = [config.lives] + [t.lives for t in res.trace]
        stagnant = sum(1 for a, b in zip(lives, lives[1:]) if b == a - 1)
        assert stagnant == config.lives - final_lives
        assert stagnant <= config.lives

    def test_deterministic(self):
        prob = make_synthetic("sphere2", 150)
        config = FlashConfig(size0=12, lives=4, seed=7)
        a = run_flash(prob.fresh(), prob.pool(), config)
        b = run_flash(prob.fresh(), prob.pool(), config)
        assert [e.point.id for e in a.evaluated] == [e.point.id for e in b.evaluated]
        assert [t.__dict__ for t in a.trace] == [t.__dict__ for t in b.trace]

    def test_best_matches_bruteforce_front_of_evaluated(self):
        prob = make_synthetic("sphere2", 100)
        res = run_flash(prob, prob.pool(), FlashConfig(size0=8, lives=3, seed=8))
        vectors = [e.objectives.values for e in res.evaluated]
        oracle_front = brute_front_partition(vectors, senses_of(prob.schema))[0]
        got = sorted(e.eval_index for e in res.best)
        assert got == oracle_front

    def test_incremental_front_equals_full_front(self):
        # The loop maintains front(best + new); spot-check it equals the
        # front over all evaluated points at every step.
        prob = make_synthetic("sphere2", 80)
        res = run_flash(prob, prob.pool(), FlashConfig(size0=6, lives=4, seed=9))
        for upto in range(7, len(res.evaluated) + 1):
            prefix = res.evaluated[:upto]
            full = {e.eval_index for e in front0(prefix, prob.schema)}
            if upto == len(res.evaluated):
                assert {e.eval_index for e in res.best} == full

    def test_oversized_initial_sample_rejected(self):
        prob = grid_problem(10)
        with pytest.raises(ValueError, match="exceeds pool"):
            run_flash(prob, prob.pool(), FlashConfig(size0=11))


class TestWhatToEvaluateNext:
    def test_single_candidate_returned(self, min2):
        prob = grid_problem(8)
        models = [constant_model(1.0), constant_model(2.0)]
        only = prob.pool()[3]
        assert pick([only], models, min2) is only

    def test_constant_models_tie_to_lowest_id(self, min2):
        prob = grid_problem(8)
        pool = prob.pool()
        models = [constant_model(1.0), constant_model(2.0)]
        assert pick([pool[5], pool[2], pool[7]], models, min2).id == 2

    def test_three_candidate_tradeoff_all_tie(self, min2):
        # Models predict f1=x and f2=1-x; for candidates 0.0, 0.5, 1.0 the
        # pairwise indicator values are exactly symmetric, so every
        # domination count is 0 and the lowest id wins.
        x = np.array([[0.0], [0.5], [1.0]])
        m1 = fit_arrays(x, x[:, 0])
        m2 = fit_arrays(x, 1.0 - x[:, 0])
        prob = grid_problem(3)
        pool = prob.pool()
        for a, b in ((0.0, 0.5), (0.0, 1.0), (0.5, 1.0)):
            assert not brute_indicator_dominates((a, 1 - a), (b, 1 - b), ["min", "min"])
            assert not brute_indicator_dominates((b, 1 - b), (a, 1 - a), ["min", "min"])
        assert pick(pool, [m1, m2], min2).id == 0

    def test_dominating_prediction_wins(self, min2):
        # f1 = x, f2 = x: smaller x dominates outright.
        model = fit_arrays(np.arange(6.0).reshape(6, 1), np.arange(6.0))
        prob = Problem.tabular(
            "chain",
            ("x",),
            min2,
            [(float(i),) for i in range(6)],
            [(float(i), float(i)) for i in range(6)],
        )
        assert pick(prob.pool(), [model, model], min2).id == 0

    def test_empty_candidates_rejected(self, min2):
        with pytest.raises(ValueError, match="no candidates"):
            what_to_evaluate_next(np.empty((0, 1)), [], [constant_model(0.0)] * 2, min2)

    def test_model_count_must_match_schema(self, min2):
        prob = grid_problem(5)
        with pytest.raises(ValueError, match="one model per objective"):
            pick(prob.pool(), [constant_model(0.0)], min2)
