import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashopt.core import (
    DecisionPoint,
    LoadError,
    ObjectiveSchema,
    ObjectiveVector,
    Problem,
    ProblemKind,
    Sense,
    load_tabular,
    min_max_scale,
)
from flashopt.monrp import ReleasePlan, as_problem, generate, is_feasible


def write(tmp_path, text, name="table.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


SMALL = "spouts,counters,-latency,+throughput\n1,2,10.5,100\n2,1,8.0,90\n"


class TestSchema:
    def test_unique_names_required(self):
        with pytest.raises(ValueError):
            ObjectiveSchema(("a", "a"), (Sense.MIN, Sense.MIN))

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            ObjectiveSchema(("a", "b"), (Sense.MIN,))

    def test_weights(self):
        schema = ObjectiveSchema(("a", "b"), (Sense.MIN, Sense.MAX))
        assert schema.weights == (-1, 1)


class TestObjectiveVector:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ObjectiveVector((1.0, float("nan")))
        with pytest.raises(ValueError):
            ObjectiveVector((float("inf"),))


class TestMinMaxScale:
    @given(
        st.integers(1, 4).flatmap(
            lambda f: st.lists(
                st.lists(st.floats(-1e300, 1e300), min_size=f, max_size=f),
                min_size=1,
                max_size=20,
            )
        )
    )
    @settings(max_examples=200)
    def test_in_range_rows_land_in_unit_box(self, rows):
        x = np.array(rows)
        lo, hi = x.min(axis=0), x.max(axis=0)
        out = min_max_scale(x, lo, hi)
        assert out.shape == x.shape
        assert np.all((0.0 <= out) & (out <= 1.0))
        assert np.all(out[:, hi == lo] == 0.0)

    def test_zero_span_axis_maps_to_zero(self):
        lo, hi = np.array([5.0, 1.0]), np.array([5.0, 3.0])
        out = min_max_scale(np.array([[5.0, 1.0], [5.0, 3.0]]), lo, hi)
        assert out.tolist() == [[0.0, 0.0], [0.0, 1.0]]


class TestLoadTabular:
    def test_header_prefixes_define_senses(self, tmp_path):
        prob = load_tabular(write(tmp_path, SMALL))
        assert prob.kind is ProblemKind.TABULAR
        assert prob.decision_arity == 2
        assert prob.decision_names == ("spouts", "counters")
        assert prob.schema.names == ("latency", "throughput")
        assert prob.schema.senses == (Sense.MIN, Sense.MAX)
        assert prob.pool_size == 2

    def test_no_objective_columns(self, tmp_path):
        with pytest.raises(LoadError, match="no objective columns"):
            load_tabular(write(tmp_path, "a,b\n1,2\n"))

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        with pytest.raises(LoadError, match=r":3.*column 2"):
            load_tabular(write(tmp_path, "a,-y\n1,2\n3,oops\n"))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    @pytest.mark.parametrize("col", [1, 2])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell, col):
        row = [cell, "2"] if col == 1 else ["3", cell]
        text = "a,-y\n1,2\n" + ",".join(row) + "\n"
        with pytest.raises(LoadError, match=rf"\.csv:3: .*'{cell}' in column {col}"):
            load_tabular(write(tmp_path, text))

    def test_ragged_row_rejected(self, tmp_path):
        with pytest.raises(LoadError, match=":2"):
            load_tabular(write(tmp_path, "a,-y\n1\n"))

    def test_conflicting_duplicate_rows_rejected(self, tmp_path):
        text = "a,-y\n1,2\n1,3\n"
        with pytest.raises(LoadError, match="conflicting"):
            load_tabular(write(tmp_path, text))

    def test_consistent_duplicate_rows_allowed(self, tmp_path):
        prob = load_tabular(write(tmp_path, "a,-y\n1,2\n1,2\n"))
        assert prob.pool_size == 2

    def test_binary_flag_table(self, tmp_path):
        # 1023 distinct settings over 11 binary columns.
        names = [f"flag{i}" for i in range(11)]
        lines = [",".join(names + ["-perf", "+mem"])]
        for v in range(1, 1024):
            bits = [str((v >> b) & 1) for b in range(11)]
            lines.append(",".join(bits + [str(v % 7), str(v % 5)]))
        prob = load_tabular(write(tmp_path, "\n".join(lines) + "\n"))
        assert prob.pool_size == 1023
        assert prob.decision_arity == 11


class TestEvaluate:
    def test_memoized_and_counted(self, tmp_path):
        prob = load_tabular(write(tmp_path, SMALL))
        point = prob.pool()[1]
        first = prob.evaluate(point)
        second = prob.evaluate(point)
        assert first.objectives == second.objectives == ObjectiveVector((8.0, 90.0))
        assert first.eval_index == 0 and second.eval_index == 1
        assert prob.eval_count == 2

    def test_counter_starts_at_zero(self, tmp_path):
        prob = load_tabular(write(tmp_path, SMALL))
        assert prob.eval_count == 0

    def test_full_pool_evaluation_counts_n(self, tmp_path):
        prob = load_tabular(write(tmp_path, SMALL))
        for p in prob.pool():
            prob.evaluate(p)
        assert prob.eval_count == prob.pool_size

    def test_unknown_id_rejected(self, tmp_path):
        prob = load_tabular(write(tmp_path, SMALL))
        with pytest.raises(ValueError, match="unknown point id"):
            prob.evaluate(DecisionPoint(99, (1.0, 2.0)))

    def test_generative_non_finite_objective_rejected(self):
        schema = ObjectiveSchema(("f",), (Sense.MIN,))
        prob = Problem.generative(
            "bad",
            ("x",),
            schema,
            sampler=lambda rng, n: [(rng.random(),) for _ in range(n)],
            evaluator=lambda d: (float("inf"),),
        )
        with pytest.raises(ValueError, match="non-finite"):
            prob.evaluate(DecisionPoint(0, (0.5,)))

    def test_fresh_resets_counter_only(self, tmp_path):
        prob = load_tabular(write(tmp_path, SMALL))
        prob.evaluate(prob.pool()[0])
        clone = prob.fresh()
        assert clone.eval_count == 0
        assert prob.eval_count == 1
        assert clone.pool() == prob.pool()


class TestSamplePool:
    def test_full_sample_returns_all_rows(self, tmp_path):
        lines = ["x,-y"] + [f"{i},{i}" for i in range(10)]
        prob = load_tabular(write(tmp_path, "\n".join(lines) + "\n"))
        sample = prob.sample_pool(10, seed=3)
        assert sorted(p.id for p in sample) == list(range(10))

    def test_seed_determinism(self, tmp_path):
        lines = ["x,-y"] + [f"{i},{i}" for i in range(30)]
        prob = load_tabular(write(tmp_path, "\n".join(lines) + "\n"))
        a = prob.sample_pool(7, seed=42)
        b = prob.sample_pool(7, seed=42)
        assert a == b

    def test_oversample_rejected(self, tmp_path):
        prob = load_tabular(write(tmp_path, SMALL))
        with pytest.raises(ValueError, match="exceeds pool"):
            prob.sample_pool(3, seed=0)

    def test_monrp_sample_is_feasible(self):
        inst = generate(20, 3, 4, 10, 90, seed=11)
        prob = as_problem(inst)
        sample = prob.sample_pool(100, seed=5)
        assert len(sample) == 100
        for p in sample:
            plan = ReleasePlan(tuple(int(v) for v in p.decisions))
            ok, violations = is_feasible(inst, plan)
            assert ok, violations

    def test_generative_sampling_deterministic(self):
        inst = generate(10, 2, 2, 0, 120, seed=1)
        prob = as_problem(inst)
        assert prob.sample_pool(5, seed=9) == prob.sample_pool(5, seed=9)
