import statistics
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flashopt import cart
from flashopt.core import ObjectiveSchema, Sense, load_tabular
from flashopt.dominance import domination_scores
from flashopt.domtree import (
    DominationTree,
    _best_path,
    build_domination_tree,
    render,
    tree_stats,
)
from flashopt.flash import FlashConfig, run_flash
from flashopt.nsga2 import Nsga2Config, run_nsga2
from flashopt.synth import make_synthetic

from conftest import (
    brute_domination_scores,
    reference_best_path,
    reference_fit,
    reference_predict,
    reference_render,
    senses_of,
    tree_nodes,
    whole_pool,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def points_at(decisions, objectives):
    """Decision and objective matrices, row k of each for example k."""
    return np.array(decisions, dtype=float), np.array(objectives, dtype=float)


def indexed(objectives):
    """Objective rows with the one decision column 0, 1, 2, ..."""
    return points_at([(i,) for i in range(len(objectives))], objectives)


def parse_rendered(text):
    """Recover (nodes, leaves) from the indented listing: every leaf is one
    '(score)' line, every internal node contributes two branch lines."""
    lines = text.splitlines()
    leaves = sum(1 for ln in lines if ln.strip("| \t").strip("*").startswith("("))
    branch_lines = len(lines) - leaves
    assert branch_lines % 2 == 0
    return branch_lines // 2 + leaves, leaves


class TestBuildDominationTree:
    def test_identical_objectives_single_leaf(self, min2):
        x, y = indexed([(1, 1)] * 6)
        dt = build_domination_tree(x, y, min2, ["x"])
        assert tree_stats(dt) == (1, 1)
        assert dt.best_path == ()

    def test_node_bound(self, min2):
        x, y = indexed([(i, 9 - i) for i in range(10)])
        dt = build_domination_tree(x, y, min2, ["x"])
        nodes, leaves = tree_stats(dt)
        assert nodes <= 2 * len(y) - 1
        assert nodes == 2 * leaves - 1

    def test_targets_equal_bruteforce_scores(self, min2):
        # A chain: scores 3, 2, 1, 0 over the decision axis; a tree fitted
        # on those targets predicts each exactly (pure leaves reachable).
        vectors = [(0, 0), (1, 1), (2, 2), (3, 3)]
        x, y = indexed(vectors)
        dt = build_domination_tree(x, y, min2, ["x"])
        scores = brute_domination_scores(vectors, senses_of(min2))
        assert scores == [3, 2, 1, 0]
        tree = dt.tree
        for row, want in zip(x, scores):
            node = 0
            while tree.left[node] >= 0:
                value = row[tree.feature[node]]
                node = tree.left[node] if value <= tree.threshold[node] else tree.right[node]
            assert tree.prediction[node] == want

    def test_too_few_points_rejected(self, min2):
        with pytest.raises(ValueError):
            build_domination_tree(*indexed([(1, 2)]), min2, ["x"])

    def test_best_path_reaches_max_leaf_mean(self, min2):
        x, y = indexed([(i, i) for i in range(8)])
        dt = build_domination_tree(x, y, min2, ["x"])
        tree = dt.tree
        leaf_means = tree.prediction[tree.left < 0]
        assert leaf_means.size > 1
        node = 0
        for step in dt.best_path:
            assert (step.feature, step.threshold) == (tree.feature[node], tree.threshold[node])
            node = tree.left[node] if step.direction == "<=" else tree.right[node]
        assert tree.left[node] < 0
        assert tree.prediction[node] == leaf_means.max()


class TestAgainstReferences:
    @pytest.mark.parametrize("case", ["monrp", "step", "step_small", "tabular"])
    def test_golden_run_trees(self, case):
        # Every stored run of the golden lock, as `flashopt tree` fits it.
        dumps = sorted((GOLDEN / case / "runs").glob("*.csv"))
        assert dumps
        for dump in dumps:
            problem = load_tabular(dump)
            x = problem.x
            targets = domination_scores(problem.y, problem.schema).astype(float)
            dt = build_domination_tree(x, problem.y, problem.schema, problem.decision_names)
            assert tree_nodes(dt.tree) == tree_nodes(reference_fit(x, targets)), dump.name
            assert dt.best_path == reference_best_path(dt.tree), dump.name
            assert render(dt) == reference_render(dt), dump.name

    def test_large_tree_best_path(self):
        gen = np.random.default_rng(3)
        x = gen.integers(0, 5, size=(3000, 10)).astype(float)
        y = gen.integers(0, 60, size=(3000, 3)).astype(float)
        schema = ObjectiveSchema(("a", "b", "c"), (Sense.MAX, Sense.MIN, Sense.MIN))
        dt = build_domination_tree(x, y, schema, [f"d{i}" for i in range(10)])
        assert tree_stats(dt)[0] > 1000
        assert len(dt.best_path) > 5
        assert dt.best_path == reference_best_path(dt.tree)


GRID = [0.0, 0.5, 1.0, 2.0, 7.5]  # few distinct values, so ties are common
ROOT_LEAF = (np.array([[0.0], [1.0], [2.0]]), np.full(3, 4.0))
# Each target's size outweighs the rest, so every split peels off the last
# row: a chain eleven splits deep, its best leaf (-1) at the bottom.
CHAIN = (np.arange(12.0)[:, None], -(4.0 ** np.arange(12)))
# Leaves 5, 0, 5, 0 from left to right: two best leaves tie.
TIED = (np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([5.0, 0.0, 5.0, 0.0]))


@st.composite
def small_fits(draw):
    """Grid decisions with small integer targets: many tied leaf means."""
    f = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    rows = st.lists(st.sampled_from(GRID), min_size=f, max_size=f)
    x = draw(st.lists(rows, min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return np.array(x), np.array(y, dtype=float)


class TestNodeArraysMatchLinkedReferences:
    def test_named_cases_have_their_shapes(self):
        for (x, y), nodes in ((ROOT_LEAF, 1), (CHAIN, 23), (TIED, 7)):
            assert len(cart.fit_arrays(x, y).left) == nodes
        chain = cart.fit_arrays(*CHAIN)
        assert len(_best_path(chain)) == 11
        tied = cart.fit_arrays(*TIED)
        assert np.count_nonzero(tied.prediction[tied.left < 0] == 5.0) == 2

    @given(small_fits())
    @example(ROOT_LEAF)
    @example(CHAIN)
    @example(TIED)
    @settings(max_examples=150, deadline=None)
    def test_walks_over_arrays(self, case):
        x, y = case
        tree = cart.fit_arrays(x, y)
        dt = DominationTree(tree, tuple(f"d{i}" for i in range(x.shape[1])), _best_path(tree))
        assert dt.best_path == reference_best_path(tree)
        assert render(dt) == reference_render(dt)
        # Probes on the grid and a quarter step up, where thresholds sit.
        probes = np.vstack([x, x + 0.25])
        assert cart.predict_many(tree, probes).tolist() == reference_predict(tree, probes).tolist()
        nodes = tree_nodes(tree)
        leaves = sum(1 for _, _, feature, _ in nodes if feature is None)
        assert tree_stats(dt) == (len(nodes), leaves)


class TestRender:
    def test_single_leaf_line(self, min2):
        x, y = indexed([(1, 1), (1, 1)])
        dt = build_domination_tree(x, y, min2, ["x"])
        assert render(dt) == "**(0)**"

    def test_depth_one_layout(self, min2):
        # Binary decision column, two pure leaves around threshold 0.5;
        # four lines, leaf lines one level deeper than their branch lines.
        x, y = points_at([(0,), (0,), (1,), (1,)], [(0, 0), (0, 0), (5, 5), (5, 5)])
        dt = build_domination_tree(x, y, min2, ["sccp"])
        lines = render(dt).splitlines()
        assert lines == [
            "**sccp<=0.5**",
            "|    **(2)**",
            "sccp>0.5",
            "|    (0)",
        ]

    def test_best_branch_is_marked_on_the_right_side(self, min2):
        # Flip the objectives so the high-decision side wins.
        x, y = points_at([(0,), (0,), (1,), (1,)], [(5, 5), (5, 5), (0, 0), (0, 0)])
        dt = build_domination_tree(x, y, min2, ["sccp"])
        lines = render(dt).splitlines()
        assert lines == [
            "sccp<=0.5",
            "|    (0)",
            "**sccp>0.5**",
            "|    **(2)**",
        ]

    def test_fractional_scores_render_one_decimal(self, min2):
        # Mixed leaf: points (0,0),(1,1) in one leaf give scores 1 and 0,
        # mean 0.5.
        x, y = indexed([(0, 0), (1, 1)])
        dt = build_domination_tree(x, y, min2, ["x"])
        text = render(dt)
        if tree_stats(dt) == (1, 1):
            assert text == "**(0.5)**"

    def test_round_trip_parse_recovers_stats(self, min2):
        x, y = indexed([(i % 5, (i * 3) % 7) for i in range(30)])
        dt = build_domination_tree(x, y, min2, ["x"])
        assert parse_rendered(render(dt)) == tree_stats(dt)

    def test_render_deterministic(self, min2):
        x, y = indexed([(i % 4, i % 3) for i in range(24)])
        dt1 = build_domination_tree(x, y, min2, ["x"])
        dt2 = build_domination_tree(x, y, min2, ["x"])
        assert render(dt1) == render(dt2)


class TestTreeSizeComparison:
    def test_small_budget_run_yields_smaller_tree(self):
        # Trees summarizing a 30-ish-evaluation search stay smaller than
        # trees summarizing a few hundred evaluations of the same space.
        flash_sizes = []
        ea_sizes = []
        for seed in range(5):
            prob = make_synthetic("sphere2", 400)
            fres = run_flash(prob.fresh(), whole_pool(prob), FlashConfig(size0=10, lives=5, seed=seed))
            nres = run_nsga2(prob.fresh(), Nsga2Config(pop_size=20, generations=10, seed=seed))
            ft = build_domination_tree(fres.x, fres.y, prob.schema, prob.decision_names)
            nt = build_domination_tree(nres.x, nres.y, prob.schema, prob.decision_names)
            flash_sizes.append(tree_stats(ft)[0])
            ea_sizes.append(tree_stats(nt)[0])
        assert statistics.median(flash_sizes) < statistics.median(ea_sizes)
