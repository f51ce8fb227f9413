import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flashopt import cart, dominance, flash
from flashopt.cart import fit_arrays
from flashopt.core import ObjectiveSchema, Problem, Sense
from flashopt.dominance import front0
from flashopt.flash import FlashConfig, run_flash, what_to_evaluate_next
from flashopt.synth import make_synthetic

from conftest import (
    brute_binary_dominates,
    brute_front_partition,
    brute_indicator_dominates,
    reference_pick,
    senses_of,
    whole_pool,
)


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


def stepped_problem(n=80):
    """One decision on a grid; objectives (x, 1-x) floored to quarters,
    both minimized: plateaus repeat each objective vector many times, and
    a point at a step edge is dominated by its neighbors."""
    xs = [i / (n - 1) for i in range(n)]
    schema = ObjectiveSchema(("f1", "f2"), (Sense.MIN, Sense.MIN))
    objectives = [(np.floor(4 * x) / 4, np.floor(4 * (1 - x)) / 4) for x in xs]
    return Problem.tabular("stepped", ("x",), schema, [(x,) for x in xs], objectives)


def constant_model(value, rows=4):
    return fit_arrays(np.arange(rows, dtype=float).reshape(rows, 1), np.full(rows, value))


def pick(x, ids, models, schema):
    """The id of the candidate row that what_to_evaluate_next returns."""
    return ids[what_to_evaluate_next(np.asarray(x, dtype=float), ids, models, schema)]


class TestRunFlash:
    def test_pool_equal_to_initial_sample_stops_immediately(self):
        prob = grid_problem(20)
        res = run_flash(prob, whole_pool(prob), FlashConfig(size0=20, seed=1))
        assert res.evals == 20
        assert res.trace == []
        got = sorted(res.ids[res.front].tolist())
        front = front0(res.y, prob.schema)
        want = sorted(res.ids[front].tolist())
        assert got == want

    def test_constant_objectives_exhaust_the_pool(self):
        prob = grid_problem(30, constant=True)
        res = run_flash(prob, whole_pool(prob), FlashConfig(size0=5, lives=3, seed=2))
        # Every evaluation ties the whole front, so the front keeps growing
        # and no life is ever lost.
        assert res.evals == 30
        assert res.trace[-1].lives == 3
        assert len(res.front) == 30

    def test_one_eval_per_iteration(self):
        prob = grid_problem(40)
        res = run_flash(prob, whole_pool(prob), FlashConfig(size0=10, lives=2, seed=3))
        assert res.evals == 10 + len(res.trace)

    def test_budget_bounds(self):
        prob = grid_problem(50)
        res = run_flash(prob, whole_pool(prob), FlashConfig(size0=15, seed=4))
        assert 15 <= res.evals <= 50

    def test_lives_never_increase(self):
        prob = make_synthetic("sphere2", 120)
        res = run_flash(prob, whole_pool(prob), FlashConfig(size0=10, lives=6, seed=5))
        lives = [6] + [t.lives for t in res.trace]
        for before, after in zip(lives, lives[1:]):
            assert after in (before, before - 1)

    def test_stagnant_iterations_equal_lives_spent(self):
        prob = make_synthetic("sphere2", 120)
        config = FlashConfig(size0=10, lives=6, seed=6)
        res = run_flash(prob, whole_pool(prob), config)
        final_lives = res.trace[-1].lives if res.trace else config.lives
        # An iteration that kept the front id-set unchanged is exactly one
        # that cost a life.
        lives = [config.lives] + [t.lives for t in res.trace]
        stagnant = sum(1 for a, b in zip(lives, lives[1:]) if b == a - 1)
        assert stagnant == config.lives - final_lives
        assert stagnant <= config.lives

    @pytest.mark.parametrize("name", ["step", "stepped"])
    def test_lives_spent_exactly_on_dominated_points(self, name):
        # Oracle for the stagnation rule: an iteration costs a life iff some
        # earlier evaluation binary-dominates the new one, and the reported
        # front size is that of the brute front of the evaluations so far.
        # On the stepped grid some new points copy a front vector, which
        # joins the front and costs no life.
        make = {"step": lambda: make_synthetic("step", 300), "stepped": stepped_problem}[name]
        spent = kept = ties = 0
        for seed in range(6):
            prob = make()
            config = FlashConfig(size0=6, lives=4, seed=seed)
            res = run_flash(prob, whole_pool(prob), config)
            senses = senses_of(prob.schema)
            vectors = res.y.tolist()
            size0 = len(vectors) - len(res.trace)
            lives = config.lives
            for k, rec in enumerate(res.trace, start=size0):
                earlier = vectors[:k]
                dominated = any(brute_binary_dominates(v, vectors[k], senses) for v in earlier)
                assert rec.lives == lives - dominated
                front = brute_front_partition(vectors[: k + 1], senses)[0]
                assert rec.front_size == len(front)
                lives = rec.lives
                spent += dominated
                kept += not dominated
                ties += vectors[k] in earlier and not dominated
        assert spent and kept
        assert ties or name == "step"

    def test_deterministic(self):
        prob = make_synthetic("sphere2", 150)
        config = FlashConfig(size0=12, lives=4, seed=7)
        a = run_flash(prob.fresh(), whole_pool(prob), config)
        b = run_flash(prob.fresh(), whole_pool(prob), config)
        assert a.ids.tolist() == b.ids.tolist()
        assert [t.__dict__ for t in a.trace] == [t.__dict__ for t in b.trace]

    def test_best_matches_bruteforce_front_of_evaluated(self):
        prob = make_synthetic("sphere2", 100)
        res = run_flash(prob, whole_pool(prob), FlashConfig(size0=8, lives=3, seed=8))
        oracle_front = brute_front_partition(res.y.tolist(), senses_of(prob.schema))[0]
        assert sorted(res.front.tolist()) == oracle_front

    def test_incremental_front_equals_full_front(self):
        # The loop maintains front(best + new); spot-check it equals the
        # front over all evaluated points at every step.
        prob = make_synthetic("sphere2", 80)
        res = run_flash(prob, whole_pool(prob), FlashConfig(size0=6, lives=4, seed=9))
        for upto in range(7, len(res.y) + 1):
            full = set(front0(res.y[:upto], prob.schema).tolist())
            if upto == len(res.y):
                assert set(res.front.tolist()) == full

    def test_oversized_initial_sample_rejected(self):
        prob = grid_problem(10)
        with pytest.raises(ValueError, match="exceeds pool"):
            run_flash(prob, whole_pool(prob), FlashConfig(size0=11))


@st.composite
def tied_picks(draw):
    """Candidates and trees fitted on decisions from a 0..3 integer grid of
    1..3 columns, with 1..4 objectives on the same grid under mixed senses:
    many candidates share a leaf in every tree, so their predicted vectors
    tie exactly. Candidate ids are distinct and unordered."""
    f = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    senses = draw(st.lists(st.sampled_from(Sense), min_size=m, max_size=m))
    schema = ObjectiveSchema(tuple(f"o{i}" for i in range(m)), tuple(senses))

    def grid(rows, cols):
        cells = hnp.arrays(np.int8, (rows, cols), elements=st.integers(0, 3))
        return draw(cells).astype(float)

    x_train = grid(draw(st.integers(1, 30)), f)
    y_train = grid(x_train.shape[0], m)
    models = [fit_arrays(x_train, y_train[:, j]) for j in range(m)]
    n = draw(st.integers(1, 300))
    ids = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n, unique=True))
    return grid(n, f), ids, models, schema


class TestWhatToEvaluateNext:
    @given(tied_picks())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_pick(self, case):
        cand_matrix, ids, models, schema = case
        got = what_to_evaluate_next(cand_matrix, ids, models, schema)
        assert got == reference_pick(cand_matrix, ids, models, schema)

    def test_tied_front_is_scored_as_one_vector(self, min2, monkeypatch):
        # Constant models put all 5,000 candidates on the front with one
        # predicted vector. The front rows must be grouped before scoring,
        # or the wins matrix would be 5,000 x 5,000.
        seen = []
        tiles = dominance._win_tiles

        def spy(keys, starts, buffers):
            seen.append(len(keys))
            return tiles(keys, starts, buffers)

        monkeypatch.setattr(dominance, "_win_tiles", spy)
        ids = random.Random(5).sample(range(100_000), 5_000)
        matrix = np.arange(5_000.0).reshape(5_000, 1)
        models = [constant_model(1.0), constant_model(2.0)]
        row = what_to_evaluate_next(matrix, ids, models, min2)
        assert seen == [1]
        assert ids[row] == min(ids)

    def test_front_vectors_weighed_by_their_copies(self):
        # Indicator wins among these four front vectors: a beats d; b beats
        # a and c; c beats a; d beats b and c. One copy each, b and d would
        # tie on 2; with three copies of d, a scores 3 and wins.
        a, b, c, d = [0.0, 9.0, 6.0], [4.0, 3.0, 7.0], [5.0, 2.0, 9.0], [7.0, 6.0, 2.0]
        x = np.arange(4.0).reshape(4, 1)
        models = [fit_arrays(x, np.array([a, b, c, d])[:, j]) for j in range(3)]
        schema = ObjectiveSchema(("f1", "f2", "f3"), (Sense.MIN,) * 3)
        cand_matrix = np.array([[1.0], [3.0], [0.0], [3.0], [2.0], [3.0]])
        assert what_to_evaluate_next(cand_matrix, list(range(6)), models, schema) == 2

    def test_equal_vectors_of_two_leaf_cells_merge(self, monkeypatch):
        # The vectors of test_front_vectors_weighed_by_their_copies, with d
        # trained at x = 0 and x = 4: two leaf cells that predict d. Its
        # three copies span both cells, and a still wins with a score of 3.
        a, b, c, d = [0.0, 9.0, 6.0], [4.0, 3.0, 7.0], [5.0, 2.0, 9.0], [7.0, 6.0, 2.0]
        x = np.arange(5.0).reshape(5, 1)
        y = np.array([d, a, b, c, d])
        models = fit_arrays(x, y)
        ends = np.array([[0.0], [4.0]])
        assert any(len(set(cart.apply(m, ends).tolist())) == 2 for m in models)
        schema = ObjectiveSchema(("f1", "f2", "f3"), (Sense.MIN,) * 3)
        cand_matrix = np.array([[1.0], [0.0], [4.0], [0.0], [2.0], [3.0]])
        seen = []
        scores = flash._class_scores

        def spy(keys, counts, schema):
            seen.append((keys.tolist(), counts.tolist()))
            return scores(keys, counts, schema)

        monkeypatch.setattr(flash, "_class_scores", spy)
        assert what_to_evaluate_next(cand_matrix, list(range(6)), models, schema) == 0
        assert reference_pick(cand_matrix, list(range(6)), models, schema) == 0
        assert seen == [(sorted([a, b, c, d]), [1, 1, 1, 3])]

    def test_leaf_key_wider_than_int64(self):
        # Five trees of 8,191 nodes: the five leaf numbers of a candidate
        # span more keys than an int64 holds, so the key is renumbered on
        # the way, and the pick is still the reference's.
        n = 4096
        x = np.arange(float(n)).reshape(n, 1)
        y = np.column_stack([(np.arange(n) * (2 * j + 1)) % n for j in range(5)]).astype(float)
        models = fit_arrays(x, y)
        assert math.prod(len(m.left) for m in models) > np.iinfo(np.int64).max
        schema = ObjectiveSchema(
            tuple(f"o{j}" for j in range(5)),
            (Sense.MIN, Sense.MAX, Sense.MIN, Sense.MAX, Sense.MIN),
        )
        gen = np.random.default_rng(2)
        cand_matrix = gen.integers(0, n, size=(300, 1)).astype(float)
        ids = gen.permutation(10_000)[:300].tolist()
        got = what_to_evaluate_next(cand_matrix, ids, models, schema)
        assert got == reference_pick(cand_matrix, ids, models, schema)

    def test_single_candidate_returned(self, min2):
        prob = grid_problem(8)
        models = [constant_model(1.0), constant_model(2.0)]
        assert pick(prob.x[[3]], [3], models, min2) == 3

    def test_constant_models_tie_to_lowest_id(self, min2):
        prob = grid_problem(8)
        models = [constant_model(1.0), constant_model(2.0)]
        assert pick(prob.x[[5, 2, 7]], [5, 2, 7], models, min2) == 2

    def test_three_candidate_tradeoff_all_tie(self, min2):
        # Models predict f1=x and f2=1-x; for candidates 0.0, 0.5, 1.0 the
        # pairwise indicator values are exactly symmetric, so every
        # domination count is 0 and the lowest id wins.
        x = np.array([[0.0], [0.5], [1.0]])
        m1 = fit_arrays(x, x[:, 0])
        m2 = fit_arrays(x, 1.0 - x[:, 0])
        prob = grid_problem(3)
        for a, b in ((0.0, 0.5), (0.0, 1.0), (0.5, 1.0)):
            assert not brute_indicator_dominates((a, 1 - a), (b, 1 - b), ["min", "min"])
            assert not brute_indicator_dominates((b, 1 - b), (a, 1 - a), ["min", "min"])
        assert pick(prob.x, [0, 1, 2], [m1, m2], min2) == 0

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
        assert pick(prob.x, list(range(6)), [model, model], min2) == 0

    def test_empty_candidates_rejected(self, min2):
        with pytest.raises(ValueError, match="no candidates"):
            what_to_evaluate_next(np.empty((0, 1)), [], [constant_model(0.0)] * 2, min2)

    def test_model_count_must_match_schema(self, min2):
        prob = grid_problem(5)
        with pytest.raises(ValueError, match="one model per objective"):
            pick(prob.x, list(range(5)), [constant_model(0.0)], min2)
