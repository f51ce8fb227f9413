import math
import random
import sys
import threading
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flashopt import dominance
from flashopt.cli import build_problem
from flashopt.core import ObjectiveSchema, Sense
from flashopt.dominance import (
    _PARALLEL_TILES,
    _TILE_ROWS,
    _class_wins,
    _ordered_sum,
    binary_dominates,
    domination_scores,
    front0,
    indicator_dominates,
    indicator_value,
    nondominated_mask,
    nondominated_sort,
    oriented_matrix,
)
from flashopt.nsga2 import Nsga2Config, run_nsga2

from conftest import (
    brute_binary_dominates,
    brute_domination_scores,
    brute_front_partition,
    brute_indicator_dominates,
    brute_indicator_m,
    reference_class_scores,
    reference_class_wins,
    reference_nondominated_mask,
    reference_nondominated_sort,
    senses_of,
)


def schema_for(k, sense=Sense.MIN):
    return ObjectiveSchema(tuple(f"o{i}" for i in range(k)), (sense,) * k)


class TestBinaryDominates:
    def test_better_on_both(self, min2):
        assert binary_dominates((1, 2), (2, 3), min2)

    def test_equal_vectors_do_not_dominate(self, min2):
        assert not binary_dominates((1, 2), (1, 2), min2)

    def test_incomparable_pair(self, min2):
        assert not binary_dominates((1, 3), (2, 2), min2)
        assert not binary_dominates((2, 2), (1, 3), min2)

    def test_max_sense_flips_direction(self):
        schema = ObjectiveSchema(("lat", "thr"), (Sense.MIN, Sense.MAX))
        assert binary_dominates((1.0, 9.0), (2.0, 8.0), schema)
        assert not binary_dominates((1.0, 7.0), (2.0, 8.0), schema)

    def test_length_mismatch_raises(self, min2):
        with pytest.raises(ValueError):
            binary_dominates((1, 2, 3), (1, 2), min2)

    def test_matches_oracle_on_random_pairs(self, rng):
        for k in (2, 3, 4):
            schema = schema_for(k)
            for _ in range(300):
                x = tuple(rng.random() for _ in range(k))
                y = tuple(rng.random() for _ in range(k))
                assert binary_dominates(x, y, schema) == brute_binary_dominates(
                    x, y, ["min"] * k
                )

    def test_matches_oracle_on_tied_pairs_of_mixed_senses(self, rng):
        # Values from {-0.0, 0.0, 1.0, 2.0}: copies, ties and signed zeros.
        for k in (1, 2, 3):
            schema = ObjectiveSchema(tuple(f"o{i}" for i in range(k)),
                                     tuple(rng.choice(list(Sense)) for _ in range(k)))
            for _ in range(300):
                x = tuple(rng.choice((-0.0, 0.0, 1.0, 2.0)) for _ in range(k))
                y = tuple(rng.choice((-0.0, 0.0, 1.0, 2.0)) for _ in range(k))
                want = brute_binary_dominates(x, y, senses_of(schema))
                assert binary_dominates(x, y, schema) == want, (x, y, schema)


class TestPairsRejectNonFinite:
    def test_binary_dominates(self, min2):
        with pytest.raises(ValueError, match=r"non-finite .*\(0\.0, nan\)"):
            binary_dominates((0, math.nan), (1, 1), min2)
        with pytest.raises(ValueError, match=r"non-finite .*\(nan, 1\.0\)"):
            binary_dominates((0, 0), (math.nan, 1), min2)

    def test_indicator_dominates(self, min2):
        with pytest.raises(ValueError, match=r"non-finite .*\(nan, 1\.0\)"):
            indicator_dominates((0, 0), (math.nan, 1), min2)

    def test_indicator_value(self, min2):
        with pytest.raises(ValueError, match=r"non-finite .*\(0\.0, inf\)"):
            indicator_value((0, 0), (0, math.inf), min2)
        with pytest.raises(ValueError, match=r"non-finite .*\(nan, 1\.0\)"):
            indicator_value((0, 0), (math.nan, 1), min2)


class TestIndicator:
    def test_worked_example(self, min2):
        assert indicator_value((0, 0), (1, 1), min2) == pytest.approx(
            -math.exp(0.5), abs=1e-12
        )
        assert indicator_value((1, 1), (0, 0), min2) == pytest.approx(
            -math.exp(-0.5), abs=1e-12
        )

    def test_self_comparison_is_minus_one(self, rng):
        for k in (1, 2, 3, 5):
            schema = schema_for(k)
            for _ in range(25):
                x = tuple(rng.uniform(-50, 50) for _ in range(k))
                assert indicator_value(x, x, schema) == pytest.approx(-1.0, abs=1e-12)

    def test_dominates_worked_example(self, min2):
        assert indicator_dominates((0, 0), (1, 1), min2)
        assert not indicator_dominates((1, 1), (0, 0), min2)

    def test_irreflexive(self, min2):
        assert not indicator_dominates((2, 3), (2, 3), min2)

    def test_binary_implies_indicator(self, rng):
        # Also witnesses the MIN <-> w=-1 sign convention.
        for k in (2, 3, 4):
            schema = schema_for(k)
            checked = 0
            for _ in range(1000):
                x = tuple(rng.random() for _ in range(k))
                y = tuple(rng.random() for _ in range(k))
                if binary_dominates(x, y, schema):
                    checked += 1
                    assert indicator_dominates(x, y, schema)
            assert checked > 10

    def test_matches_oracle_values(self, rng):
        schema = ObjectiveSchema(("a", "b", "c"), (Sense.MIN, Sense.MAX, Sense.MIN))
        for _ in range(200):
            x = tuple(rng.uniform(-5, 5) for _ in range(3))
            y = tuple(rng.uniform(-5, 5) for _ in range(3))
            expect = brute_indicator_m(x, y, ["min", "max", "min"])
            assert indicator_value(x, y, schema) == pytest.approx(expect, rel=1e-12)

    def test_dominates_matches_oracle(self, rng):
        schema = ObjectiveSchema(("a", "b", "c"), (Sense.MIN, Sense.MAX, Sense.MIN))
        for _ in range(300):
            x = tuple(rng.uniform(-50, 50) for _ in range(3))
            y = tuple(rng.uniform(-50, 50) for _ in range(3))
            want = brute_indicator_dominates(x, y, ["min", "max", "min"])
            assert indicator_dominates(x, y, schema) == want

    def test_overflowing_exponents_still_compare(self, min2):
        # e^(5e5) overflows; the common rescale keeps the comparison exact
        # even when both sums would overflow.
        assert indicator_dominates((0, 0), (1e6, 1e6), min2)
        assert not indicator_dominates((1e6, 1e6), (0, 0), min2)
        assert not indicator_dominates((0, 1e6), (1e6, 0), min2)
        assert indicator_dominates((0, 1e6), (1e6 + 2000, 0), min2)
        assert not indicator_dominates((1e6 + 2000, 0), (0, 1e6), min2)

    def test_length_mismatch_rejected(self, min2):
        with pytest.raises(ValueError, match="length mismatch"):
            indicator_dominates((0, 0, 0), (1, 1), min2)

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=2),
        st.lists(st.floats(-100, 100), min_size=2, max_size=2),
    )
    @settings(max_examples=200)
    def test_asymmetric(self, xs, ys):
        schema = schema_for(2)
        assert not (
            indicator_dominates(xs, ys, schema) and indicator_dominates(ys, xs, schema)
        )


class TestPartialOrder:
    @given(
        st.lists(
            st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=200)
    def test_transitive_and_asymmetric(self, triple):
        schema = schema_for(3)
        a, b, c = triple
        if binary_dominates(a, b, schema):
            assert not binary_dominates(b, a, schema)
        if binary_dominates(a, b, schema) and binary_dominates(b, c, schema):
            assert binary_dominates(a, c, schema)

    def test_irreflexive(self, rng):
        schema = schema_for(2)
        for _ in range(50):
            x = (rng.random(), rng.random())
            assert not binary_dominates(x, x, schema)


@st.composite
def grid_sets(draw, min_size=0):
    """An (n, m) objective matrix, n in min_size..200, of 1..6 objectives
    under mixed senses, on a 0..3 integer grid, so exact ties on some axes
    and duplicate rows are common."""
    m = draw(st.integers(1, 6))
    senses = draw(st.lists(st.sampled_from(Sense), min_size=m, max_size=m))
    n = draw(st.integers(min_size, 200))
    grid = draw(hnp.arrays(np.int8, (n, m), elements=st.integers(0, 3)))
    return grid.astype(float), ObjectiveSchema(tuple(f"o{i}" for i in range(m)), tuple(senses))


def matrix(vectors):
    return np.array(vectors, dtype=float)


class TestNondominatedSort:
    def test_mutually_incomparable_single_front(self, min2):
        y = matrix([(0, 2), (1, 1), (2, 0)])
        assert nondominated_sort(y, min2) == ((0, 1, 2),)

    def test_chain_gives_three_fronts(self, min2):
        y = matrix([(0, 0), (1, 1), (2, 2)])
        assert nondominated_sort(y, min2) == ((0,), (1,), (2,))

    def test_duplicates_share_a_front(self, min2):
        y = matrix([(1, 1), (0, 0), (1, 1)])
        assert nondominated_sort(y, min2) == ((1,), (0, 2))

    def test_empty_raises(self, min2):
        with pytest.raises(ValueError):
            nondominated_sort(np.empty((0, 2)), min2)

    def test_matches_bruteforce_partition(self, rng):
        for trial in range(30):
            k = rng.choice([2, 3, 4])
            n = rng.randint(2, 120)
            schema = schema_for(k)
            vectors = [
                tuple(round(rng.uniform(0, 4), 1) for _ in range(k)) for _ in range(n)
            ]
            got = [list(f) for f in nondominated_sort(matrix(vectors), schema)]
            assert got == brute_front_partition(vectors, ["min"] * k)

    @given(grid_sets(min_size=1))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_and_brute_partition(self, case):
        y, schema = case
        fronts = nondominated_sort(y, schema)
        assert fronts == reference_nondominated_sort(y, schema)
        assert [list(f) for f in fronts] == brute_front_partition(
            y.tolist(), senses_of(schema)
        )

    @given(grid_sets(min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_enough_lists_the_shortest_prefix_that_holds_it(self, case):
        y, schema = case
        fronts = reference_nondominated_sort(y, schema)
        held = np.cumsum([len(f) for f in fronts])
        for k in range(1, len(y) + 1):
            want = fronts[: int(np.searchsorted(held, k)) + 1]
            assert nondominated_sort(y, schema, enough=k) == want

    def test_front0_agrees_with_partition(self, rng):
        schema = schema_for(3)
        y = matrix([tuple(rng.random() for _ in range(3)) for _ in range(80)])
        rows = front0(y, schema)
        assert tuple(rows.tolist()) == nondominated_sort(y, schema)[0]


class TestMatrixInput:
    """The set-level kernels validate the shape of their objective matrix."""

    KERNELS = (front0, nondominated_sort, domination_scores)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_one_dimensional_input_rejected(self, kernel, min2):
        with pytest.raises(ValueError, match="objective length mismatch"):
            kernel(np.array([1.0, 2.0]), min2)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_wrong_width_rejected(self, kernel, min2):
        with pytest.raises(ValueError, match="objective length mismatch"):
            kernel(np.zeros((4, 3)), min2)

    @pytest.mark.parametrize("kernel", (front0, nondominated_sort))
    def test_no_rows_rejected(self, kernel, min2):
        with pytest.raises(ValueError, match="empty"):
            kernel(np.empty((0, 2)), min2)

    def test_no_rows_give_no_scores(self, min2):
        scores = domination_scores(np.empty((0, 2)), min2)
        assert scores.shape == (0,)


class TestNondominatedMask:
    @given(grid_sets())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_and_brute_front(self, case):
        y, schema = case
        oriented = oriented_matrix(y, schema)
        mask = nondominated_mask(oriented)
        assert np.array_equal(mask, reference_nondominated_mask(oriented))
        fronts = brute_front_partition(y.tolist(), senses_of(schema))
        want = np.zeros(len(y), dtype=bool)
        want[fronts[0] if fronts else []] = True
        assert np.array_equal(mask, want)

    @given(grid_sets(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_row_permutation(self, case, rnd):
        y, schema = case
        oriented = oriented_matrix(y, schema)
        perm = np.array(rnd.sample(range(len(y)), len(y)), dtype=int)
        mask = nondominated_mask(oriented)
        assert np.array_equal(nondominated_mask(oriented[perm]), mask[perm])

    def test_empty_input(self):
        mask = nondominated_mask(np.empty((0, 3)))
        assert mask.shape == (0,) and mask.dtype == bool

    def test_single_row(self):
        assert nondominated_mask(np.array([[2.0, -1.0, 5.0]])).tolist() == [True]

    def test_all_rows_equal_are_kept(self):
        assert nondominated_mask(np.full((7, 3), 1.5)).all()

    def test_antichain_is_kept(self, rng):
        rows = [(float(i), float(499 - i)) for i in range(500)]
        rng.shuffle(rows)
        assert nondominated_mask(np.array(rows)).all()

    def test_tie_on_all_but_one_axis(self):
        # (1, 2, 4) ties the front member (1, 2, 3) on two axes and is worse
        # on the third; (1, 2, 2) in turn beats (1, 2, 3) on that axis.
        rows = np.array([[1.0, 2.0, 4.0], [0.0, 5.0, 5.0], [1.0, 2.0, 3.0]])
        assert nondominated_mask(rows).tolist() == [False, True, True]
        rows = np.vstack([rows, [1.0, 2.0, 2.0]])
        assert nondominated_mask(rows).tolist() == [False, True, False, True]

    def test_copies_of_front_vectors_among_covered_rows(self):
        # Copies of a and b, interleaved with rows they dominate or tie on
        # all but one axis: exactly the copies are on the front.
        a, b = [1.0, 3.0, 2.0], [3.0, 1.0, 2.0]
        rows = np.array([
            a, [2.0, 4.0, 2.0],  # dominated by a
            b, [1.0, 3.0, 5.0],  # ties a on all but the last axis
            a, [3.0, 1.0, 2.5],  # ties b on all but the last axis
            b, [3.0, 3.0, 3.0],  # dominated by both
            a, b,
        ])
        want = [True, False, True, False, True, False, True, False, True, True]
        assert nondominated_mask(rows).tolist() == want


class TestDominationScore:
    def test_identical_pool_scores_zero(self, min2):
        y = matrix([(1, 1)] * 4)
        assert domination_scores(y, min2).tolist() == [0, 0, 0, 0]

    def test_chain_scores(self, min2):
        y = matrix([(0, 0), (1, 1), (2, 2)])
        assert domination_scores(y, min2).tolist() == [2, 1, 0]

    def test_score_bounded_by_pool(self, rng, min2):
        y = matrix([(rng.random(), rng.random()) for _ in range(20)])
        for score in domination_scores(y, min2):
            assert 0 <= score <= len(y) - 1

    def test_batch_matches_per_point(self, rng):
        schema = ObjectiveSchema(("a", "b", "c"), (Sense.MAX, Sense.MIN, Sense.MIN))
        vectors = [
            tuple(round(rng.uniform(0, 3), 1) for _ in range(3)) for _ in range(60)
        ]
        senses = senses_of(schema)
        batch = domination_scores(matrix(vectors), schema)
        want = brute_domination_scores(vectors, senses)
        # The kernel and the oracle round differently, and the 0.1 grid makes
        # many pairs tie in decimal arithmetic; only there may verdicts differ.
        tol = 64 * sys.float_info.epsilon

        def gap(x, y):
            return abs(brute_indicator_m(x, y, senses) - brute_indicator_m(y, x, senses))

        for i, x in enumerate(vectors):
            ties = sum(1 for j, y in enumerate(vectors) if j != i and gap(x, y) <= tol)
            assert abs(batch[i] - want[i]) <= ties


@st.composite
def key_sets(draw):
    """Up to 40 vectors of 1..12 objectives under mixed senses, either on a
    short 0.1 grid or spread up to 1e6 (overflow rescale). On the grid many
    pairs tie in exact arithmetic, so the order in which the kernel adds
    its m terms decides their verdicts."""
    m = draw(st.integers(1, 12))
    senses = draw(st.lists(st.sampled_from(Sense), min_size=m, max_size=m))
    if draw(st.booleans()):
        value = st.integers(0, 5).map(lambda v: v / 10)
    else:
        value = st.floats(0, 1e6)
    d = draw(st.integers(1, 40))
    keys = draw(st.lists(st.tuples(*[value] * m), min_size=d, max_size=d))
    return keys, ObjectiveSchema(tuple(f"o{i}" for i in range(m)), tuple(senses))


@st.composite
def score_sets(draw):
    """Up to about 3.5 tiles of rows of 1..5 objectives under mixed senses,
    drawn from a short list of distinct vectors so duplicates are common,
    in a count that usually leaves a ragged last tile."""
    m = draw(st.integers(1, 5))
    senses = draw(st.lists(st.sampled_from(Sense), min_size=m, max_size=m))
    vector = st.tuples(*[st.integers(0, 5).map(lambda v: v / 10)] * m)
    distinct = draw(st.lists(vector, min_size=1, max_size=60))
    n = draw(st.integers(1, _TILE_ROWS * 7 // 2))
    y = matrix(draw(st.lists(st.sampled_from(distinct), min_size=n, max_size=n)))
    return y, ObjectiveSchema(tuple(f"o{i}" for i in range(m)), tuple(senses))


class TestClassWins:
    @given(key_sets())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_reference(self, case):
        keys, schema = case
        assert np.array_equal(_class_wins(keys, schema), reference_class_wins(keys, schema))

    def test_several_tiles_and_scores(self, rng):
        # Full tiles, diagonal blocks and a ragged last tile, with duplicate
        # vectors so domination_scores weighs its row blocks by class size.
        d = _TILE_ROWS + 37
        for m, spread in ((3, 0), (9, 0), (3, 1e6), (9, 1e6)):
            senses = tuple(rng.choice(list(Sense)) for _ in range(m))
            schema = ObjectiveSchema(tuple(f"o{i}" for i in range(m)), senses)
            keys = [
                tuple(rng.uniform(0, spread) if spread else rng.randint(0, 5) / 10
                      for _ in range(m))
                for _ in range(d)
            ]
            wins = reference_class_wins(keys, schema)
            assert np.array_equal(_class_wins(keys, schema), wins)
            counts = np.array([1 + k % 3 for k in range(d)])
            vectors = [key for key, c in zip(keys, counts) for _ in range(c)]
            scores = (wins * counts).sum(axis=1)
            want = [int(scores[k]) for k, c in enumerate(counts) for _ in range(c)]
            assert domination_scores(matrix(vectors), schema).tolist() == want

    @given(score_sets())
    @settings(max_examples=60, deadline=None)
    def test_scores_are_row_sums_of_the_wins_matrix(self, case):
        y, schema = case
        want = (reference_class_wins(y, schema) * 1).sum(axis=1)
        assert np.array_equal(domination_scores(y, schema), want)

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="objective length mismatch"):
            _class_wins([(1.0,), (2.0,)], schema_for(3))

    def test_empty_gives_empty_matrix(self):
        wins = _class_wins(np.empty((0, 3)), schema_for(3))
        assert wins.shape == (0, 0) and wins.dtype == bool


@st.composite
def straddling_sets(draw):
    """Six to nine tiles of distinct vectors, at least two per worker for up
    to three workers, one to three copies each, rows shuffled. Column 0
    spans more than 700 m over the first 1..48 vectors in np.unique's order
    and at most 640 m over the rest, so the first tile needs the overflow
    shift and the last skips it; the far vectors reach |delta| of 1,340,
    past exp's overflow at 709."""
    m = draw(st.integers(1, 4))
    senses = draw(st.lists(st.sampled_from(Sense), min_size=m, max_size=m))
    d = draw(st.integers(6, 9)) * _TILE_ROWS - draw(st.integers(0, _TILE_ROWS - 1))
    far = draw(st.integers(1, 3 * _TILE_ROWS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = rng.uniform(0.0, 640.0 * m, (d, m))
    keys[-1, 0] = 640.0 * m
    keys[:far, 0] = rng.uniform(-700.0 * m, -61.0 * m, far)
    y = rng.permutation(np.repeat(keys, rng.integers(1, 4, d), axis=0))
    return y, ObjectiveSchema(tuple(f"o{i}" for i in range(m)), tuple(senses))


class TestClassScores:
    @given(straddling_sets())
    @settings(max_examples=40, deadline=None)
    def test_any_worker_count_matches_the_reference(self, case):
        y, schema = case
        keys = np.unique(y, axis=0)
        signed = keys * np.array(schema.weights)
        spans = [np.ptp(signed[a:], axis=0) / len(schema)
                 for a in range(0, len(keys), _TILE_ROWS)]
        assert (spans[0] > 700).any() and (spans[-1] <= 700).all()
        want = (reference_class_wins(y, schema) * 1).sum(axis=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, between array passes
        try:
            for workers in (1, 2, 3):
                with patch.object(dominance, "_workers", lambda tiles: workers):
                    assert np.array_equal(domination_scores(y, schema), want)
        finally:
            sys.setswitchinterval(interval)

    def test_tree_scale_matches_the_reference(self):
        # The benchmark's tree input: the 5,100-row NSGA-II run of
        # monrp:50-4-5-4-90 at seed 5, 4,842 distinct vectors. Column 0
        # spans 751 m, so the first tile takes the shift and 302 skip it.
        problem = build_problem("monrp:50-4-5-4-90", 10_000, 5)
        run = run_nsga2(problem, Nsga2Config(100, 50, seed=5))
        y = run.y
        schema = problem.schema
        keys, inverse, counts = np.unique(
            y, axis=0, return_inverse=True, return_counts=True
        )
        assert len(keys) == 4_842 and -(-len(keys) // _TILE_ROWS) >= _PARALLEL_TILES
        want = reference_class_scores(keys, counts, schema)[inverse.reshape(-1)]
        assert np.array_equal(domination_scores(y, schema), want)
        for workers in (1, 3):
            with patch.object(dominance, "_workers", lambda tiles: workers):
                assert np.array_equal(domination_scores(y, schema), want)

    def test_worker_error_reaches_the_caller(self, monkeypatch, rng):
        # Every worker thread fails as it asks for its first tile: the caller
        # must see the exception once every thread has been joined.
        tiles = dominance._win_tiles

        def failing(keys, starts, buffers):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker failed")
            yield from tiles(keys, starts, buffers)

        monkeypatch.setattr(dominance, "_win_tiles", failing)
        monkeypatch.setattr(dominance, "_workers", lambda tiles: 3)
        y = matrix([[rng.random() for _ in range(3)] for _ in range(8 * _TILE_ROWS)])
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="worker failed"):
            domination_scores(y, schema_for(3))
        assert threading.enumerate() == before


class TestOrderedSum:
    """_ordered_sum must add in numpy's own pairwise order, bit for bit, on
    every path: left to right under 8 terms, 8 accumulators from 8 terms
    up (their loop body runs from 16), and the recursive split above 128."""

    def test_same_bits_as_numpy_sum(self):
        gen = np.random.default_rng(5)
        for n in [*range(1, 301), 513, 1030]:
            # mixed signs over 25 decades, so any other order rounds differently
            values = gen.normal(size=(n, 3, 5)) * 10.0 ** gen.integers(-12, 13, size=(n, 3, 5))
            want = np.stack(list(values), axis=-1).sum(axis=-1)
            got = _ordered_sum([v.copy() for v in values])
            assert got.tobytes() == want.tobytes(), n
