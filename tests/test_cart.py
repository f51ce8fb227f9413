import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashopt.cart import fit_arrays, predict_many, tree_size


def four_row_example():
    # One feature; targets jump from 0 to 10 between x=1 and x=2, so the
    # variance-reduction winner among thresholds {0.5, 1.5, 2.5} is 1.5.
    return np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0.0, 0.0, 10.0, 10.0])


def random_data(rng, n, f):
    x = np.array([[rng.random() for _ in range(f)] for _ in range(n)])
    return x, np.array([rng.random() for _ in range(n)])


class TestFit:
    def test_constant_targets_single_leaf(self):
        tree = fit_arrays(np.arange(6.0).reshape(6, 1), np.full(6, 5.0))
        assert tree.root.is_leaf
        assert tree.root.prediction == 5.0
        assert tree_size(tree) == (1, 1)

    def test_step_data_splits_at_midpoint(self):
        tree = fit_arrays(*four_row_example())
        assert not tree.root.is_leaf
        assert tree.root.feature == 0
        assert tree.root.threshold == 1.5
        assert tree.root.left.is_leaf and tree.root.left.prediction == 0.0
        assert tree.root.right.is_leaf and tree.root.right.prediction == 10.0
        assert tree_size(tree) == (3, 2)

    def test_node_count_bound(self):
        rng = random.Random(4)
        for _ in range(10):
            k = rng.randint(1, 40)
            nodes, leaves = tree_size(fit_arrays(*random_data(rng, k, 2)))
            assert leaves <= k
            assert nodes == 2 * leaves - 1

    def test_child_sample_counts_sum(self):
        rng = random.Random(9)
        tree = fit_arrays(*random_data(rng, 50, 1))
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                assert node.left.n + node.right.n == node.n
                stack.extend([node.left, node.right])

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            fit_arrays(np.empty((0, 1)), np.empty(0))

    def test_mixed_arity_rejected(self):
        with pytest.raises(ValueError):
            fit_arrays([[1.0], [1.0, 2.0]], [0.0, 1.0])

    def test_deterministic(self):
        rng = random.Random(12)
        x = np.array([[rng.choice([0.0, 1.0]), rng.random()] for _ in range(60)])
        y = np.array([rng.random() for _ in range(60)])
        a = fit_arrays(x, y)
        b = fit_arrays(x, y)

        def spine(node):
            if node.is_leaf:
                return ("leaf", node.prediction, node.n)
            return (
                node.feature,
                node.threshold,
                spine(node.left),
                spine(node.right),
            )

        assert spine(a.root) == spine(b.root)


class TestTrainingError:
    def test_predictions_stay_within_target_range(self):
        rng = random.Random(8)
        x = np.array([[rng.random(), rng.random()] for _ in range(60)])
        y = np.array([rng.uniform(-3, 7) for _ in range(60)])
        tree = fit_arrays(x, y)
        probes = np.array([[rng.uniform(-1, 2), rng.uniform(-1, 2)] for _ in range(200)])
        got = predict_many(tree, probes)
        assert np.all((y.min() - 1e-12 <= got) & (got <= y.max() + 1e-12))


class TestPredict:
    def test_single_leaf_constant(self):
        tree = fit_arrays(np.array([[1.0], [2.0]]), np.array([2.5, 2.5]))
        assert predict_many(tree, np.array([[99.0]])).tolist() == [2.5]

    def test_pure_leaf_recovers_training_target(self):
        x, y = four_row_example()
        assert predict_many(fit_arrays(x, y), x).tolist() == y.tolist()

    def test_routing_around_threshold(self):
        tree = fit_arrays(*four_row_example())
        assert predict_many(tree, np.array([[1.4], [1.6]])).tolist() == [0.0, 10.0]

    def test_arity_mismatch_rejected(self):
        tree = fit_arrays(*four_row_example())
        with pytest.raises(ValueError):
            predict_many(tree, np.array([[1.0, 2.0]]))

    def test_predict_many_matches_scalar(self):
        # Reference: route one row at a time down the tree.
        def walk(node, row):
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            return node.prediction

        rng = random.Random(3)
        tree = fit_arrays(*random_data(rng, 40, 2))
        probes = np.array([[rng.random(), rng.random()] for _ in range(100)])
        assert predict_many(tree, probes).tolist() == [walk(tree.root, r) for r in probes]


def naive_root_split(rows):
    """Reference split finder: plain per-feature loops, lowest feature then
    lowest threshold on gain ties."""
    n = len(rows)
    targets = [t for _, t in rows]
    mean = sum(targets) / n
    parent_sse = sum((t - mean) ** 2 for t in targets)
    best = None
    best_gain = 0.0
    for f in range(len(rows[0][0])):
        ordered = sorted(rows, key=lambda r: r[0][f])
        for i in range(1, n):
            if ordered[i - 1][0][f] == ordered[i][0][f]:
                continue
            left = [t for _, t in ordered[:i]]
            right = [t for _, t in ordered[i:]]
            ml, mr = sum(left) / len(left), sum(right) / len(right)
            sse = sum((t - ml) ** 2 for t in left) + sum((t - mr) ** 2 for t in right)
            gain = parent_sse - sse
            if gain > best_gain + 1e-9:
                thr = 0.5 * (ordered[i - 1][0][f] + ordered[i][0][f])
                best_gain = gain
                best = (f, thr)
    return best


class TestAgainstNaiveReference:
    def test_root_split_matches_reference(self):
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randint(4, 40)
            f = rng.randint(1, 4)
            rows = [
                (tuple(rng.choice([0.0, 0.5, 1.0, 2.0]) for _ in range(f)), rng.random())
                for _ in range(n)
            ]
            tree = fit_arrays([d for d, _ in rows], [t for _, t in rows])
            want = naive_root_split(rows)
            if want is None:
                continue  # reference found no clearly positive gain
            assert not tree.root.is_leaf
            assert (tree.root.feature, tree.root.threshold) == want


class TestFitArrays:
    def test_non_finite_targets_rejected(self):
        with pytest.raises(ValueError):
            fit_arrays(np.array([[0.0], [1.0]]), np.array([1.0, float("nan")]))

    def test_non_finite_decisions_rejected(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="decisions must be finite"):
                fit_arrays(np.array([[0.0], [bad]]), np.array([1.0, 2.0]))


GRID = [0.0, 0.5, 1.0, 2.0, 7.5]  # few distinct values, so ties are common


class TestFitProperties:
    @given(
        st.integers(1, 3).flatmap(
            lambda f: st.lists(
                st.tuples(
                    st.lists(st.sampled_from(GRID), min_size=f, max_size=f),
                    st.floats(-1e3, 1e3),
                ),
                min_size=1,
                max_size=40,
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_leaf_means_and_node_count(self, rows):
        x = np.array([d for d, _ in rows])
        y = np.array([t for _, t in rows])
        tree = fit_arrays(x, y)
        reached = {}
        for k, row in enumerate(x):
            node = tree.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            reached.setdefault(id(node), (node, []))[1].append(k)
        for node, members in reached.values():
            assert node.n == len(members)
            assert node.prediction == float(y[members].mean())
        nodes, leaves = tree_size(tree)
        assert leaves == len(reached)
        assert nodes == 2 * leaves - 1
