import codecs
import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flashopt import core
from flashopt.core import (
    LoadError,
    ObjectiveSchema,
    Pool,
    Problem,
    ProblemKind,
    Sense,
    load_tabular,
    min_max_scale,
    row_keys,
)
from flashopt.cli import run_random
from flashopt.flash import FlashConfig, run_flash
from flashopt.monrp import as_problem, generate, is_feasible
from flashopt.nsga2 import Nsga2Config, run_nsga2
from flashopt.sway import run_sway
from flashopt.synth import make_synthetic

from conftest import reference_load_tabular


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


class TestTabularProblem:
    SCHEMA = ObjectiveSchema(("f", "g"), (Sense.MIN, Sense.MAX))

    def test_rejects_non_finite(self):
        # A bad objective fails when the problem is built, not when the
        # row is first evaluated; the error names the first bad row.
        x = [(0.0,), (1.0,), (2.0,)]
        y = [(1.0, 2.0), (3.0, float("nan")), (float("inf"), 0.0)]
        with pytest.raises(ValueError, match="non-finite value in row 1"):
            Problem.tabular("t", ("x",), self.SCHEMA, x, y)
        with pytest.raises(ValueError, match="non-finite value in row 2"):
            Problem.tabular("t", ("x",), self.SCHEMA, [(0.0,), (1.0,), (-math.inf,)], y[:1] * 3)

    def test_rejects_rows_without_partner(self):
        with pytest.raises(ValueError, match="row 2 has no objectives"):
            Problem.tabular("t", ("x",), self.SCHEMA, [(0.0,), (1.0,), (2.0,)], [(1.0, 2.0)] * 2)
        with pytest.raises(ValueError, match="row 1 has no decisions"):
            Problem.tabular("t", ("x",), self.SCHEMA, [(0.0,)], [(1.0, 2.0)] * 2)

    def test_rejects_wrong_widths(self):
        with pytest.raises(ValueError, match=r"need decisions \(n, 1\)"):
            Problem.tabular("t", ("x",), self.SCHEMA, [(0.0, 1.0)], [(1.0, 2.0)])
        with pytest.raises(ValueError, match=r"objectives \(n, 2\)"):
            Problem.tabular("t", ("x",), self.SCHEMA, [(0.0,)], [(1.0,)])


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


class TestRowKeys:
    @given(st.integers(1, 30), st.integers(1, 4), st.data())
    @settings(max_examples=200)
    def test_equal_rows_share_a_key_and_groups_match_unique(self, n, k, data):
        # A half-step grid with signed zeros: few values, so many equal rows.
        x = data.draw(hnp.arrays(np.int8, (n, k), elements=st.integers(-2, 2))) / 2.0
        x[(x == 0) & data.draw(hnp.arrays(bool, (n, k)))] = -0.0
        keys = row_keys(x)
        assert keys.shape == (n,)
        equal = (x[:, None, :] == x[None, :, :]).all(axis=2)
        assert ((keys[:, None] == keys[None, :]) == equal).all()
        _, by_key = np.unique(keys, return_inverse=True)
        _, by_row = np.unique(x, axis=0, return_inverse=True)
        by_row = by_row.reshape(-1)
        assert ((by_key[:, None] == by_key[None, :]) == equal).all()
        assert ((by_row[:, None] == by_row[None, :]) == equal).all()


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


FAULTS = {
    "cell count": "1,2",
    "non-numeric": "1,2,x",
    "non-finite": "1,nan,3",
    "duplicate": "1,1,6",
}


PADS = ["", " ", "\t", "\x0b", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
VALUES = ["0", "1", "-0", "1.5", "2", "1e0", "1_0", "+2"]


@st.composite
def tables(draw, pads=PADS, values=VALUES):
    """A table of 1-3 decision and 1-2 objective columns in any order, whose
    cells come from a few values, so that decision rows repeat with equal or
    conflicting objectives, padded with whitespace that both str.strip()
    and float() remove, and joined by any csv line ending. Up to three
    lines are then spoiled with a wrong cell count, a non-numeric or
    non-finite cell, or a separator that str.splitlines() would break at."""
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    names = [f"d{j}" for j in range(d)] + [draw(st.sampled_from("-+")) + f"o{j}" for j in range(m)]
    names = draw(st.permutations(names))
    pad = st.sampled_from(pads)
    value = st.sampled_from(values)
    cell = st.builds(lambda a, v, b: a + v + b, pad, value, pad)
    n = draw(st.integers(0, 14))
    lines = [",".join(draw(st.lists(cell, min_size=len(names), max_size=len(names))))
             for _ in range(n)]
    for _ in range(draw(st.integers(0, 3)) if lines else 0):
        k = draw(st.integers(0, len(lines) - 1))
        cells = lines[k].split(",")
        fault = draw(st.sampled_from(["short", "long", "text", "nan", "inf", "-inf", "sep"]))
        if fault == "short":
            cells = cells[:-1] or ["1", "2", "3", "4", "5", "6"]
        elif fault == "long":
            cells.append("1")
        else:
            j = draw(st.integers(0, len(cells) - 1))
            bad = {"text": "x", "sep": "2\u20284", "nan": "nan", "inf": "inf", "-inf": "-inf"}
            cells[j] = bad[fault]
        lines[k] = ",".join(cells)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    tail = draw(st.sampled_from(["", ending, ending + " " + ending]))
    return ending.join([",".join(names)] + lines) + tail


def loaded(load, path):
    """(names, senses, x bytes, y bytes) of a load, or its error text."""
    try:
        prob = load(path)
    except LoadError as exc:
        return str(exc)
    return prob.decision_names, prob.schema, prob.x.tobytes(), prob.y.tobytes()


class TestLoaderAgainstReference:
    @given(tables())
    @settings(max_examples=400, deadline=None)
    def test_same_problem_or_same_first_fault(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "generated.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert loaded(load_tabular, path) == loaded(reference_load_tabular, path)

    @given(tables(pads=["", " "], values=[v for v in VALUES if v != "1_0"]))
    @settings(max_examples=200, deadline=None)
    def test_clean_tables_same_problem_or_same_first_fault(self, tmp_path_factory, text):
        # Every unspoiled table here takes the one-call numpy parse.
        path = tmp_path_factory.getbasetemp() / "clean.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert loaded(load_tabular, path) == loaded(reference_load_tabular, path)

    @pytest.mark.parametrize("cell", [
        "1_0", "\u0661", "\x1c1", "1\x1d", "\x1e1\x1f", "inf", "nan", "1e999", "1e-999",
        "+.5", "5.", "--1", "007", "1.e5", "e5", "1e", ".", "+",
    ])
    def test_cells_at_the_edge_of_the_clean_characters(self, tmp_path, cell):
        path = write(tmp_path, f"a,b,-y\n1,2,3\n{cell},1,4\n5,6,7\n")
        assert loaded(load_tabular, path) == loaded(reference_load_tabular, path)

    @pytest.mark.parametrize("text", [
        "a,-y\n1,2\n\n3,4\n",
        "a,-y\n1,2\n   \n3,4\n",
        "a,-y\n1,2\n1,2,\n",
        "a,-y\n1,2\n1,,\n",
        "a,-y\n1 2,3\n",
        "a,-y\n-0,2\n0,3\n",
        "a,-y\n-0,2\n0,2\n",
        "a,-y\n7,2\n",
        "a,-y\n7,2\n \n \n",
    ], ids=["blank", "spaces", "long", "empty-cells", "inner-space", "signed-zero-conflict",
            "signed-zero-copy", "one-row", "trailing-spaces"])
    def test_line_shapes_at_the_edge_of_the_numpy_parse(self, tmp_path, text):
        path = write(tmp_path, text)
        assert loaded(load_tabular, path) == loaded(reference_load_tabular, path)

    def test_large_clean_table_parses_in_one_call(self, tmp_path):
        gen = np.random.default_rng(19)
        x = gen.integers(0, 5, size=(5000, 8)).astype(float)
        x[:, 0] = np.arange(5000)  # no decision row repeats
        y = np.round(gen.normal(size=(5000, 3)) * 1e3, 3)
        names = [f"d{j}" for j in range(8)] + ["-a", "+b", "-c"]
        lines = [",".join(repr(v) for v in row) for row in np.hstack([x, y]).tolist()]
        assert core._clean_table(lines, 11) is not None
        path = write(tmp_path, "\n".join([",".join(names)] + lines) + "\n")
        got, want = load_tabular(path), reference_load_tabular(path)
        assert got.x.tobytes() == want.x.tobytes() == x.tobytes()
        assert got.y.tobytes() == want.y.tobytes() == y.tobytes()

    @pytest.mark.parametrize("first, second", itertools.permutations(sorted(FAULTS), 2))
    def test_first_fault_in_line_order_wins(self, tmp_path, first, second):
        text = f"a,b,-y\n1,1,5\n{FAULTS[first]}\n7,7,7\n{FAULTS[second]}\n"
        path = write(tmp_path, text)
        with pytest.raises(LoadError, match=r"\.csv:3: ") as err:
            load_tabular(path)
        assert str(err.value) == loaded(reference_load_tabular, path)

    def test_lines_end_at_cr_and_lf_only(self, tmp_path):
        path = write(tmp_path, "a,-y\r\n1,2\r2,2\u20284\n3,1\n", "sep.csv")
        with pytest.raises(LoadError) as err:
            load_tabular(path)
        assert str(err.value) == f"{path}:3: non-numeric or non-finite cell '2\u20284' in column 2"
        prob = load_tabular(write(tmp_path, "a,-y\r\n1,2\r2,4\n3,1\r\n\r\n"))
        assert prob.x.tolist() == [[1.0], [2.0], [3.0]]

    def test_byte_order_mark_is_ignored(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with the mark EF BB BF.
        text = "-latency,spouts,+throughput\n10.5,1,100\n8.0,2,90\n"
        plain = write(tmp_path, text, "plain.csv")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        want = loaded(load_tabular, plain)
        assert want[0] == ("spouts",) and want[1].names == ("latency", "throughput")
        assert loaded(load_tabular, marked) == want
        assert loaded(reference_load_tabular, marked) == want

    def test_byte_order_mark_keeps_the_bad_byte_and_its_line(self, tmp_path):
        path = tmp_path / "marked.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"x,-y\n1,3\n2,\xe92\n")
        with pytest.raises(LoadError) as err:
            load_tabular(path)
        assert str(err.value).startswith(f"{path}:3: not UTF-8 text (byte 0xe9")


class TestEvaluate:
    def test_memoized_and_counted(self, tmp_path):
        prob = load_tabular(write(tmp_path, SMALL))
        first = prob.evaluate([1], prob.x[[1]])
        second = prob.evaluate([1], prob.x[[1]])
        assert first.tolist() == second.tolist() == [[8.0, 90.0]]
        assert prob.eval_count == 2

    def test_counter_starts_at_zero(self, tmp_path):
        prob = load_tabular(write(tmp_path, SMALL))
        assert prob.eval_count == 0

    def test_full_pool_evaluation_counts_n(self, tmp_path):
        prob = load_tabular(write(tmp_path, SMALL))
        y = prob.evaluate(np.arange(prob.pool_size), prob.x)
        assert prob.eval_count == prob.pool_size
        assert y.tolist() == prob.y.tolist()

    def test_unknown_id_rejected(self, tmp_path):
        prob = load_tabular(write(tmp_path, SMALL))
        with pytest.raises(ValueError, match="unknown point id"):
            prob.evaluate([99], [(1.0, 2.0)])
        assert prob.eval_count == 0

    def test_rows_must_match_the_table(self, tmp_path):
        prob = load_tabular(write(tmp_path, SMALL))
        with pytest.raises(ValueError, match="do not match the table"):
            prob.evaluate([0], [(2.0, 1.0)])
        with pytest.raises(ValueError, match="arity 2"):
            prob.evaluate([0], [(1.0,)])

    def test_generative_non_finite_objective_rejected(self):
        schema = ObjectiveSchema(("f",), (Sense.MIN,))
        prob = Problem(
            name="bad",
            decision_names=("x",),
            schema=schema,
            sampler=lambda rng, n: np.array([(rng.random(),) for _ in range(n)]),
            evaluator=lambda x: np.where(x > 0.4, np.inf, 1.0),
        )
        with pytest.raises(ValueError, match="non-finite objective for id 7"):
            prob.evaluate([3, 7], [(0.25,), (0.5,)])

    @pytest.mark.parametrize("kind", [ProblemKind.TABULAR, ProblemKind.GENERATIVE],
                             ids=["tabular", "generative"])
    def test_fresh_resets_counter_only(self, tmp_path, kind):
        if kind is ProblemKind.TABULAR:
            prob = load_tabular(write(tmp_path, SMALL))
        else:
            prob = as_problem(generate(20, 3, 4, 10, 90, seed=11))
        assert prob.kind is kind
        first = prob.sample_pool(1, random.Random(0))
        prob.evaluate(first.ids, first.x)
        clone = prob.fresh()
        assert clone.kind is kind
        assert clone.eval_count == 0
        assert prob.eval_count == 1
        for name in ("x", "y", "sampler", "evaluator", "repairer", "gene_values"):
            assert getattr(clone, name) is getattr(prob, name), name
        if kind is ProblemKind.GENERATIVE:
            with pytest.raises(ValueError, match="no fixed pool"):
                clone.pool_size


def table_of(n):
    lines = ["x,-y"] + [f"{i},{i}" for i in range(n)]
    return "\n".join(lines) + "\n"


class TestSamplePool:
    def test_full_sample_returns_all_rows(self, tmp_path):
        prob = load_tabular(write(tmp_path, table_of(10)))
        sample = prob.sample_pool(10, random.Random(3))
        assert len(sample) == 10
        assert sorted(sample.ids.tolist()) == list(range(10))
        assert sample.x.tolist() == prob.x[sample.ids].tolist()

    def test_seed_determinism(self, tmp_path):
        prob = load_tabular(write(tmp_path, table_of(30)))
        a = prob.sample_pool(7, random.Random(42))
        b = prob.sample_pool(7, random.Random(42))
        assert a.ids.tolist() == b.ids.tolist()
        assert a.x.tolist() == b.x.tolist()

    @pytest.mark.parametrize("n, k", [(30, 7), (30, 30), (5000, 12), (5000, 4000)])
    def test_same_rows_as_sampling_the_row_list(self, n, k):
        # random.sample picks positions from the population's length alone,
        # so sampling row numbers draws the rows that sampling the list of
        # rows itself draws, on both of its internal paths.
        prob = Problem.tabular(
            "t", ("a", "b"), ObjectiveSchema(("f",), (Sense.MIN,)),
            [(i, -i) for i in range(n)], [(i,) for i in range(n)],
        )
        rows = [tuple(r) for r in prob.x.tolist()]
        for seed in range(3):
            want = random.Random(seed).sample(rows, k)
            assert [tuple(r) for r in prob.sample_pool(k, random.Random(seed)).x.tolist()] == want

    def test_oversample_rejected(self, tmp_path):
        prob = load_tabular(write(tmp_path, SMALL))
        with pytest.raises(ValueError, match="exceeds pool"):
            prob.sample_pool(3, random.Random(0))

    def test_monrp_sample_is_feasible(self):
        inst = generate(20, 3, 4, 10, 90, seed=11)
        prob = as_problem(inst)
        sample = prob.sample_pool(100, random.Random(5))
        assert len(sample) == 100
        assert sample.ids.tolist() == list(range(100))
        for row in sample.x.astype(int).tolist():
            assert is_feasible(inst, row), row

    def test_generative_sampling_deterministic(self):
        inst = generate(10, 2, 2, 0, 120, seed=1)
        prob = as_problem(inst)
        a = prob.sample_pool(5, random.Random(9))
        b = prob.sample_pool(5, random.Random(9))
        assert a.x.tolist() == b.x.tolist()


class TestRunResultViews:
    """A run is its arrays; the per-row records are views built on first read."""

    RUNS = {
        "flash": lambda p, pool: run_flash(p, pool, FlashConfig(size0=10, lives=3, seed=1)),
        "sway": lambda p, pool: run_sway(p, pool, 1),
        "nsga2": lambda p, pool: run_nsga2(p, Nsga2Config(pop_size=8, generations=2, seed=1)),
        "random": lambda p, pool: run_random(p, 30, seed=1),
    }

    @pytest.mark.parametrize("algo", sorted(RUNS))
    def test_records_are_the_rows_and_take_assignment(self, algo):
        prob = make_synthetic("sphere2", 200)
        res = self.RUNS[algo](prob, Pool(np.arange(prob.pool_size), prob.x))
        assert res.evals == len(res.ids) == len(res.evaluated) == prob.eval_count
        assert [e.id for e in res.evaluated] == res.ids.tolist()
        assert np.array_equal([e.decisions for e in res.evaluated], res.x)
        assert [e.objectives.values for e in res.evaluated] == list(map(tuple, res.y.tolist()))
        row = {id(e): k for k, e in enumerate(res.evaluated)}
        assert [row[id(e)] for e in res.best] == res.front.tolist()
        assert [e.objectives.values for e in res.best] == list(map(tuple, res.y[res.front].tolist()))
        # Built once and kept; a caller may assign them.
        assert res.evaluated is res.evaluated and res.best is res.best
        res.evals += 1
        res.best = res.best + [res.evaluated[0]]
        assert res.evals == len(res.ids) + 1
        assert len(res.best) == len(res.front) + 1
        # Results compare by identity, never by their arrays.
        assert res != replace(res, ids=res.ids.copy())
