import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashopt.core import ObjectiveSchema, Sense
from flashopt.metrics import ReferenceFront, gd, igd, reference_front

from conftest import brute_front_partition


class TestReferenceFront:
    def test_already_nondominated_union_kept(self, min2):
        ref = reference_front([(0, 1), (1, 0)], min2)
        assert set(ref.points) == {(0.0, 1.0), (1.0, 0.0)}

    def test_dominated_member_dropped(self, min2):
        ref = reference_front([(0, 1), (1, 0), (1, 1)], min2)
        assert set(ref.points) == {(0.0, 1.0), (1.0, 0.0)}

    def test_duplicates_collapsed(self, min2):
        ref = reference_front([(0, 1), (0, 1), (1, 0)], min2)
        assert len(ref.points) == 2
        # -0.0 equals 0.0, so the first of the two stands for both.
        ref = reference_front([(-0.0, 1), (0.0, 1), (1, 0)], min2)
        assert [str(p) for p in ref.points] == ["(-0.0, 1.0)", "(1.0, 0.0)"]

    def test_bounds_follow_points(self, min2):
        ref = reference_front([(0, 3), (2, 1)], min2)
        assert ref.lo == (0.0, 1.0)
        assert ref.hi == (2.0, 3.0)

    def test_empty_rejected(self, min2):
        with pytest.raises(ValueError):
            reference_front([], min2)

    def test_matches_bruteforce_front(self, rng):
        schema = ObjectiveSchema(("a", "b", "c"), (Sense.MIN, Sense.MAX, Sense.MIN))
        vectors = [
            tuple(round(rng.uniform(0, 3), 1) for _ in range(3)) for _ in range(500)
        ]
        ref = reference_front(vectors, schema)
        oracle = brute_front_partition(
            list(dict.fromkeys(vectors)), ["min", "max", "min"]
        )[0]
        distinct = list(dict.fromkeys(vectors))
        assert set(ref.points) == {distinct[i] for i in oracle}


# The stated ref for the worked distance examples; built directly because
# under MIN,MIN the corner point would not survive front filtering.
UNIT_DIAGONAL = ReferenceFront(
    points=((0.0, 0.0), (1.0, 1.0)), lo=(0.0, 0.0), hi=(1.0, 1.0)
)


class TestGd:
    def test_front_against_itself_is_zero(self, rng, min2):
        for _ in range(20):
            pts = [(rng.random(), rng.random()) for _ in range(12)]
            ref = reference_front(pts, min2)
            assert gd(ref.points, ref, min2) == 0.0

    def test_worked_example(self, min2):
        assert gd([(0, 0.5)], UNIT_DIAGONAL, min2) == pytest.approx(0.5, abs=1e-12)

    def test_singleton_is_nearest_neighbor_distance(self, min2):
        got = gd([(0.25, 0.25)], UNIT_DIAGONAL, min2)
        assert got == pytest.approx(math.hypot(0.25, 0.25), abs=1e-12)


class TestIgd:
    def test_front_against_itself_is_zero(self, min2):
        ref = reference_front([(0, 1), (0.5, 0.5), (1, 0)], min2)
        assert igd(ref.points, ref, min2) == 0.0

    def test_worked_example(self, min2):
        assert igd([(0, 0)], UNIT_DIAGONAL, min2) == pytest.approx(
            math.sqrt(2) / 2, abs=1e-9
        )

    def test_subset_scores_gd_zero_but_igd_positive(self, min2):
        ref = reference_front([(0, 1), (0.5, 0.5), (1, 0)], min2)
        obtained = [(0, 1)]
        assert gd(obtained, ref, min2) == 0.0
        assert igd(obtained, ref, min2) > 0.0


class TestOnReferenceFront:
    @given(
        st.lists(
            st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_gd_and_igd_vanish(self, vectors):
        schema = ObjectiveSchema(("a", "b", "c"), (Sense.MIN, Sense.MAX, Sense.MIN))
        ref = reference_front(vectors, schema)
        assert gd(ref.points, ref, schema) == 0.0
        assert igd(ref.points, ref, schema) == 0.0


class TestNormalization:
    def test_zero_range_axis_contributes_nothing(self, min2):
        ref = reference_front([(1.0, 0.0), (1.0, 1.0)], min2)  # no spread on axis 0
        # A point far away on axis 0 only is at distance 0 after the
        # degenerate axis drops out.
        assert gd([(500.0, 0.0)], ref, min2) == 0.0

    def test_role_swap_identity(self, rng, min2):
        # igd equals gd with the argument roles swapped, when normalization
        # is pinned to the same reference bounds.
        for _ in range(10):
            ref = reference_front(
                [(rng.random(), rng.random()) for _ in range(8)], min2
            )
            obtained = [(rng.random(), rng.random()) for _ in range(5)]
            swapped = ReferenceFront(points=tuple(map(tuple, obtained)), lo=ref.lo, hi=ref.hi)
            assert igd(obtained, ref, min2) == pytest.approx(
                gd(ref.points, swapped, min2), rel=1e-12
            )

    def test_coincident_addition_never_hurts(self, rng, min2):
        for _ in range(10):
            base = [(rng.random(), rng.random()) for _ in range(6)]
            ref = reference_front(base, min2)
            obtained = [(rng.random(), rng.random()) for _ in range(4)]
            grown = obtained + [ref.points[0]]
            assert gd(grown, ref, min2) <= gd(obtained, ref, min2) + 1e-12
            assert igd(grown, ref, min2) <= igd(obtained, ref, min2) + 1e-12

    def test_indicators_nonnegative(self, rng, min2):
        for _ in range(20):
            ref = reference_front(
                [(rng.random(), rng.random()) for _ in range(6)], min2
            )
            obtained = [(rng.random(), rng.random()) for _ in range(6)]
            assert gd(obtained, ref, min2) >= 0.0
            assert igd(obtained, ref, min2) >= 0.0
