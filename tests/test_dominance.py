import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashopt.core import ObjectiveSchema, Sense
from flashopt.dominance import (
    _TILE_ROWS,
    _class_wins,
    binary_dominates,
    domination_scores,
    front0,
    indicator_dominates,
    indicator_value,
    nondominated_sort,
)

from conftest import (
    brute_binary_dominates,
    brute_domination_scores,
    brute_front_partition,
    brute_indicator_dominates,
    brute_indicator_m,
    make_points,
    reference_class_wins,
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


class TestNondominatedSort:
    def test_mutually_incomparable_single_front(self, min2):
        points = make_points([(0, 2), (1, 1), (2, 0)])
        assert nondominated_sort(points, min2).fronts == ((0, 1, 2),)

    def test_chain_gives_three_fronts(self, min2):
        points = make_points([(0, 0), (1, 1), (2, 2)])
        assert nondominated_sort(points, min2).fronts == ((0,), (1,), (2,))

    def test_duplicates_share_a_front(self, min2):
        points = make_points([(1, 1), (0, 0), (1, 1)])
        assert nondominated_sort(points, min2).fronts == ((1,), (0, 2))

    def test_empty_raises(self, min2):
        with pytest.raises(ValueError):
            nondominated_sort([], min2)

    def test_matches_bruteforce_partition(self, rng):
        for trial in range(30):
            k = rng.choice([2, 3, 4])
            n = rng.randint(2, 120)
            schema = schema_for(k)
            vectors = [
                tuple(round(rng.uniform(0, 4), 1) for _ in range(k)) for _ in range(n)
            ]
            points = make_points(vectors)
            got = [list(f) for f in nondominated_sort(points, schema).fronts]
            assert got == brute_front_partition(vectors, ["min"] * k)

    def test_front0_agrees_with_partition(self, rng):
        schema = schema_for(3)
        vectors = [tuple(rng.random() for _ in range(3)) for _ in range(80)]
        points = make_points(vectors)
        ids = [p.eval_index for p in front0(points, schema)]
        assert tuple(ids) == nondominated_sort(points, schema).fronts[0]


class TestDominationScore:
    def test_identical_pool_scores_zero(self, min2):
        points = make_points([(1, 1)] * 4)
        assert domination_scores(points, min2) == [0, 0, 0, 0]

    def test_chain_scores(self, min2):
        points = make_points([(0, 0), (1, 1), (2, 2)])
        assert domination_scores(points, min2) == [2, 1, 0]

    def test_score_bounded_by_pool(self, rng, min2):
        vectors = [(rng.random(), rng.random()) for _ in range(20)]
        points = make_points(vectors)
        for score in domination_scores(points, min2):
            assert 0 <= score <= len(points) - 1

    def test_batch_matches_per_point(self, rng):
        schema = ObjectiveSchema(("a", "b", "c"), (Sense.MAX, Sense.MIN, Sense.MIN))
        vectors = [
            tuple(round(rng.uniform(0, 3), 1) for _ in range(3)) for _ in range(60)
        ]
        senses = senses_of(schema)
        batch = domination_scores(make_points(vectors), schema)
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
            assert domination_scores(make_points(vectors), schema) == want

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="objective length mismatch"):
            _class_wins([(1.0,), (2.0,)], schema_for(3))

    def test_empty_gives_empty_matrix(self):
        wins = _class_wins([], schema_for(3))
        assert wins.shape == (0, 0) and wins.dtype == bool
