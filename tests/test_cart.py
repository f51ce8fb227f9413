import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashopt import cart
from flashopt.cart import fit_arrays, predict_many
from flashopt.core import ObjectiveSchema, Sense
from flashopt.dominance import domination_scores

from conftest import reference_best_splits, reference_fit, tree_nodes


def four_row_example():
    # One feature; targets jump from 0 to 10 between x=1 and x=2, so the
    # variance-reduction winner among thresholds {0.5, 1.5, 2.5} is 1.5.
    return np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0.0, 0.0, 10.0, 10.0])


def random_data(rng, n, f):
    x = np.array([[rng.random() for _ in range(f)] for _ in range(n)])
    return x, np.array([rng.random() for _ in range(n)])


def node_and_leaf_counts(tree):
    return len(tree.left), int(np.count_nonzero(tree.left < 0))


def leaf_of(tree, row):
    """Route one row down the node arrays; return its leaf's node number."""
    node = 0
    while tree.left[node] >= 0:
        go_left = row[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return int(node)


class TestFit:
    def test_constant_targets_single_leaf(self):
        tree = fit_arrays(np.arange(6.0).reshape(6, 1), np.full(6, 5.0))
        assert tree.left.tolist() == [-1] and tree.right.tolist() == [-1]
        assert tree.prediction.tolist() == [5.0]
        assert tree.n.tolist() == [6]
        assert node_and_leaf_counts(tree) == (1, 1)

    def test_step_data_splits_at_midpoint(self):
        tree = fit_arrays(*four_row_example())
        # The root is node 0; its split makes node 1 (left), then node 2.
        assert tree.left.tolist() == [1, -1, -1]
        assert tree.right.tolist() == [2, -1, -1]
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 1.5
        assert tree.prediction.tolist() == [5.0, 0.0, 10.0]
        assert tree.n.tolist() == [4, 2, 2]
        assert node_and_leaf_counts(tree) == (3, 2)

    def test_node_count_bound(self):
        rng = random.Random(4)
        for _ in range(10):
            k = rng.randint(1, 40)
            nodes, leaves = node_and_leaf_counts(fit_arrays(*random_data(rng, k, 2)))
            assert leaves <= k
            assert nodes == 2 * leaves - 1

    def test_child_sample_counts_sum(self):
        rng = random.Random(9)
        tree = fit_arrays(*random_data(rng, 50, 1))
        inner = np.flatnonzero(tree.left >= 0)
        assert inner.size > 1
        assert (tree.n[tree.left[inner]] + tree.n[tree.right[inner]] == tree.n[inner]).all()
        assert tree.n[0] == 50

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
        for name in ("feature", "threshold", "left", "right", "n", "prediction"):
            assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name


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
        rng = random.Random(3)
        tree = fit_arrays(*random_data(rng, 40, 2))
        probes = np.array([[rng.random(), rng.random()] for _ in range(100)])
        want = [tree.prediction[leaf_of(tree, r)] for r in probes]
        assert predict_many(tree, probes).tolist() == want


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
            assert tree.left[0] >= 0
            assert (int(tree.feature[0]), float(tree.threshold[0])) == want


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
            reached.setdefault(leaf_of(tree, row), []).append(k)
        for node, members in reached.items():
            assert tree.n[node] == len(members)
            assert tree.prediction[node] == float(y[members].mean())
        nodes, leaves = node_and_leaf_counts(tree)
        assert leaves == len(reached)
        assert nodes == 2 * leaves - 1


def schema_of(senses) -> ObjectiveSchema:
    return ObjectiveSchema(tuple(f"o{i}" for i in range(len(senses))), tuple(senses))


@st.composite
def grid_decisions(draw, max_rows=80):
    f = draw(st.integers(1, 4))
    n = draw(st.integers(1, max_rows))
    rows = draw(st.lists(st.lists(st.sampled_from(GRID), min_size=f, max_size=f),
                         min_size=n, max_size=n))
    return np.array(rows)


@st.composite
def score_fits(draw):
    """Grid decisions whose targets are the domination scores of grid-valued
    objective rows, as in a domination tree: small integers, many ties."""
    x = draw(grid_decisions())
    m = draw(st.integers(1, 3))
    senses = draw(st.lists(st.sampled_from(Sense), min_size=m, max_size=m))
    objectives = draw(st.lists(st.tuples(*[st.integers(0, 4)] * m),
                               min_size=len(x), max_size=len(x)))
    y = domination_scores(np.array(objectives, dtype=float), schema_of(senses))
    return x, y.astype(float)


@st.composite
def real_fits(draw):
    """Grid decisions with real-valued targets, as in flash's surrogates."""
    x = draw(grid_decisions())
    y = draw(st.lists(st.floats(-1e6, 1e6), min_size=len(x), max_size=len(x)))
    return x, np.array(y)


class TestFitMatchesReference:
    """The level-wise fit must build the node-at-a-time tree node for node:
    the same n, prediction, feature and threshold everywhere."""

    @given(score_fits())
    @settings(max_examples=200, deadline=None)
    def test_domination_score_targets(self, case):
        x, y = case
        assert tree_nodes(fit_arrays(x, y)) == tree_nodes(reference_fit(x, y))

    @given(real_fits())
    @settings(max_examples=200, deadline=None)
    def test_real_targets_on_grid_decisions(self, case):
        x, y = case
        assert tree_nodes(fit_arrays(x, y)) == tree_nodes(reference_fit(x, y))

    @pytest.mark.parametrize("targets", ["scores", "real"])
    def test_thousands_of_rows(self, targets):
        # 2,400 rows: a tall tree whose levels hold hundreds of nodes of
        # equal size, so most split searches run on (B, n) batches.
        gen = np.random.default_rng(11)
        x = gen.integers(0, 5, size=(2400, 12)).astype(float)
        if targets == "scores":
            objectives = gen.integers(0, 40, size=(2400, 3)).astype(float)
            y = domination_scores(objectives, schema_of([Sense.MAX, Sense.MIN, Sense.MIN]))
            y = y.astype(float)
        else:
            y = x @ gen.normal(size=12) + gen.normal(scale=0.1, size=2400)
        got = tree_nodes(fit_arrays(x, y))
        assert got == tree_nodes(reference_fit(x, y))
        assert len(got) > 1000

    @pytest.mark.parametrize("targets", ["scores", "real"])
    def test_duplicate_decision_rows(self, targets):
        # Each decision row four times over with its own targets: many nodes
        # end with one decision row and unequal targets, and no candidate.
        gen = np.random.default_rng(23)
        x = np.repeat(gen.integers(0, 3, size=(60, 4)).astype(float), 4, axis=0)
        if targets == "scores":
            y = gen.integers(0, 5, size=240).astype(float)
        else:
            y = gen.normal(size=240)
        tree = fit_arrays(x, y)
        assert tree_nodes(tree) == tree_nodes(reference_fit(x, y))
        assert (tree.n[tree.left < 0] > 1).any()

    def test_collapsed_midpoint_falls_back_to_the_lower_value(self):
        # Between 1.0 and the float just below it, the midpoint rounds up to
        # 1.0, which would send both rows left.
        lo = np.nextafter(1.0, 0.0)
        assert 0.5 * (lo + 1.0) >= 1.0
        x = np.array([[lo], [1.0], [lo], [1.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        tree = fit_arrays(x, y)
        assert tree.threshold[0] == lo
        assert predict_many(tree, np.array([[lo], [1.0]])).tolist() == [0.0, 1.0]
        assert tree_nodes(tree) == tree_nodes(reference_fit(x, y))


@st.composite
def split_blocks(draw):
    """The arguments of one split search, as fit_arrays gathers them: B
    nodes of n rows, each node's decisions and targets sorted by each
    feature, ties in row order. A column may copy column 0 (ties across
    features) or be constant, a node may repeat one decision row with
    unequal targets (no candidate), and targets are small integers (tied
    gains) or reals."""
    f, b, n = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(2, 12))
    rows = b * n
    x = np.array(draw(st.lists(st.sampled_from(GRID), min_size=rows * f, max_size=rows * f)))
    x = x.reshape(rows, f)
    for j in range(1, f):
        kind = draw(st.sampled_from(["free", "copy", "constant"]))
        if kind == "copy":
            x[:, j] = x[:, 0]
        elif kind == "constant":
            x[:, j] = GRID[j]
    for node in range(b):
        if draw(st.integers(0, 3)) == 0:
            x[node * n:(node + 1) * n] = x[node * n]
    target = st.integers(0, 4).map(float) if draw(st.booleans()) else st.floats(-1e3, 1e3)
    y = np.array(draw(st.lists(target, min_size=rows, max_size=rows)))
    ords = np.concatenate(
        [np.argsort(x[k:k + n].T, axis=1, kind="stable") + k for k in range(0, rows, n)], axis=1
    )
    xs, ys = np.take_along_axis(x.T, ords, axis=1), y[ords]
    cols = np.add.outer(np.arange(0, rows, n), np.arange(n))
    ysub = y[cols]
    return xs[:, cols], ys[:, cols], ysub, ysub.sum(axis=1)


@st.composite
def joint_fits(draw):
    """Grid decisions with 1..4 target columns: real values, small integers
    with many ties, a constant column, or a copy of an earlier column."""
    x = draw(grid_decisions(max_rows=60))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["real", "ties", "constant", "copy"]))
        if kind == "real":
            col = draw(st.lists(st.floats(-1e6, 1e6), min_size=len(x), max_size=len(x)))
        elif kind == "ties":
            col = draw(st.lists(st.integers(0, 3), min_size=len(x), max_size=len(x)))
        elif kind == "constant":
            col = [draw(st.floats(-10, 10))] * len(x)
        else:
            col = columns[draw(st.integers(0, len(columns) - 1))] if columns else [0.0] * len(x)
        columns.append([float(v) for v in col])
    return x, np.array(columns).T


class TestJointFit:
    """fit_arrays on an n-by-m target matrix grows, for every column, the
    tree that the node-at-a-time reference grows on that column alone,
    compared in preorder: nodes of other trees that share a level may
    number a tree's nodes in another order."""

    @given(joint_fits())
    @settings(max_examples=200, deadline=None)
    def test_each_tree_matches_its_lone_reference(self, case):
        x, y = case
        trees = fit_arrays(x, y)
        assert len(trees) == y.shape[1]
        for tree, col in zip(trees, y.T):
            assert tree_nodes(tree) == tree_nodes(reference_fit(x, col))
            # A tree's node arrays stand alone: every child is its own node.
            inner = tree.left >= 0
            children = np.concatenate([tree.left[inner], tree.right[inner]])
            assert sorted(children.tolist()) == list(range(1, len(tree.left)))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_tied_columns_on_hundreds_of_rows(self, m):
        gen = np.random.default_rng(m)
        x = gen.integers(0, 4, size=(400, 6)).astype(float)
        x[:, 5] = x[:, 4]  # two tied decision columns
        y = np.column_stack([gen.integers(0, 3 + j, size=400) for j in range(m)]).astype(float)
        for tree, col in zip(fit_arrays(x, y), y.T):
            assert tree_nodes(tree) == tree_nodes(reference_fit(x, col))

    def test_one_column_matrix_gives_the_one_tree(self):
        x, y = random_data(random.Random(4), 50, 2)
        (tree,) = fit_arrays(x, y[:, None])
        lone = fit_arrays(x, y)
        for a, b in zip(
            (tree.feature, tree.left, tree.right, tree.n, tree.prediction),
            (lone.feature, lone.left, lone.right, lone.n, lone.prediction),
        ):
            assert a.tolist() == b.tolist()

    def test_no_target_columns_rejected(self):
        with pytest.raises(ValueError, match="n-by-m"):
            fit_arrays(np.zeros((3, 1)), np.zeros((3, 0)))


class TestApply:
    @given(real_fits(), st.lists(st.lists(st.sampled_from(GRID + [-1.0, 3.0]), min_size=4,
                                          max_size=4), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_leaf_numbers_route_like_one_row_at_a_time(self, case, probes):
        x, y = case
        tree = fit_arrays(x, y)
        probes = np.array(probes)[:, : x.shape[1]]
        leaves = cart.apply(tree, probes)
        assert leaves.tolist() == [leaf_of(tree, row) for row in probes]
        # A column-major copy routes the same way.
        assert cart.apply(tree, np.asfortranarray(probes)).tolist() == leaves.tolist()
        assert predict_many(tree, probes).tolist() == tree.prediction[leaves].tolist()


class TestBestSplitsMatchReference:
    @given(split_blocks())
    @settings(max_examples=300, deadline=None)
    def test_features_positions_and_thresholds(self, block):
        want = reference_best_splits(*block)
        # As fit_arrays lays the block out, and as one C-ordered array.
        for args in (block, [np.ascontiguousarray(a) for a in block]):
            feature, pos, thresholds = cart._best_splits(*args)
            assert feature.tolist() == want[0].tolist()
            assert pos.tolist() == want[1].tolist()
            assert thresholds == want[2]
