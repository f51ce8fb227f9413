import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashopt.stats import _mean, a12, scott_knott


class TestA12:
    def test_complete_separation(self):
        assert a12([5, 6, 7], [1, 2, 3]) == 1.0
        assert a12([1, 2, 3], [5, 6, 7]) == 0.0

    def test_all_ties(self):
        assert a12([3, 3, 3], [3, 3]) == 0.5

    def test_hand_counted_example(self):
        assert a12([1, 2], [1, 3]) == 0.375

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            a12([], [1])
        with pytest.raises(ValueError):
            a12([1], [])

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=12),
        st.lists(st.floats(-50, 50), min_size=1, max_size=12),
    )
    @settings(max_examples=200)
    def test_antisymmetry(self, xs, ys):
        assert a12(xs, ys) + a12(ys, xs) == pytest.approx(1.0, abs=1e-12)

    def test_range(self):
        rng = random.Random(2)
        for _ in range(100):
            xs = [rng.uniform(0, 5) for _ in range(rng.randint(1, 10))]
            ys = [rng.uniform(0, 5) for _ in range(rng.randint(1, 10))]
            assert 0.0 <= a12(xs, ys) <= 1.0


class TestScottKnott:
    def test_single_group(self):
        ranked = scott_knott([("only", [1.0, 2.0, 3.0])])
        assert ranked.ranks == (1,)
        assert ranked.rank_of("only") == 1

    def test_identical_groups_share_rank_one(self):
        groups = [(name, [7.0] * 10) for name in ("a", "b", "c")]
        ranked = scott_knott(groups)
        assert ranked.ranks == (1, 1, 1)

    def test_disjoint_ranges_get_two_ranks(self):
        rng = random.Random(5)
        low = [rng.uniform(0.0, 1.0) for _ in range(20)]
        high = [rng.uniform(2.0, 3.0) for _ in range(20)]
        ranked = scott_knott([("slow", high), ("fast", low)])
        assert ranked.rank_of("fast") == 1
        assert ranked.rank_of("slow") == 2

    def test_larger_is_better_flips_order(self):
        ranked = scott_knott(
            [("small", [1.0] * 8), ("big", [9.0] * 8)], smaller_is_better=False
        )
        assert ranked.rank_of("big") == 1
        assert ranked.rank_of("small") == 2

    def test_three_separated_groups_three_ranks(self):
        rng = random.Random(6)
        groups = [
            ("a", [rng.uniform(0, 1) for _ in range(15)]),
            ("b", [rng.uniform(5, 6) for _ in range(15)]),
            ("c", [rng.uniform(10, 11) for _ in range(15)]),
        ]
        ranked = scott_knott(groups)
        assert ranked.rank_of("a") == 1
        assert ranked.rank_of("b") == 2
        assert ranked.rank_of("c") == 3

    def test_rank_order_respects_medians(self):
        import statistics

        rng = random.Random(7)
        for _ in range(30):
            groups = [
                (f"g{i}", [rng.gauss(rng.uniform(0, 4), 1.0) for _ in range(10)])
                for i in range(4)
            ]
            ranked = scott_knott(groups)
            meds = [
                (rank, statistics.median(samples))
                for (label, samples), rank in zip(ranked.entries, ranked.ranks)
            ]
            for (r1, m1), (r2, m2) in zip(meds, meds[1:]):
                if r1 < r2:
                    assert m1 <= m2

    def test_input_order_never_matters(self):
        rng = random.Random(8)
        groups = [
            ("x", [rng.uniform(0, 1) for _ in range(12)]),
            ("y", [rng.uniform(0.5, 1.5) for _ in range(12)]),
            ("z", [rng.uniform(4, 5) for _ in range(12)]),
        ]
        base = scott_knott(groups)
        want = {label: base.rank_of(label) for label, _ in groups}
        for _ in range(10):
            shuffled = list(groups)
            rng.shuffle(shuffled)
            ranked = scott_knott(shuffled)
            assert {label: ranked.rank_of(label) for label, _ in shuffled} == want

    def test_ranks_contiguous_from_one(self):
        rng = random.Random(9)
        for _ in range(20):
            groups = [
                (f"g{i}", [rng.uniform(0, rng.choice([1, 10])) for _ in range(8)])
                for i in range(5)
            ]
            ranked = scott_knott(groups)
            seen = sorted(set(ranked.ranks))
            assert seen == list(range(1, max(ranked.ranks) + 1))

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            scott_knott([("a", [])])
        with pytest.raises(ValueError):
            scott_knott([])

    def test_unknown_label_raises(self):
        ranked = scott_knott([("a", [1.0])])
        with pytest.raises(KeyError):
            ranked.rank_of("missing")


class TestMean:
    def test_adds_left_to_right(self):
        # 1e16 + 1 rounds back to 1e16, so the plain left-to-right sum is 0;
        # a compensated sum (Python 3.12's sum(), math.fsum) gives 1.
        assert _mean([1e16, 1.0, -1e16]) == 0.0
        assert _mean([1.0, 1e16, -1e16]) == 0.0
        assert _mean([1e16, -1e16, 1.0]) == 1.0 / 3
