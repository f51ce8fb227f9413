import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from flashopt import cli
from flashopt.cli import (
    ExperimentSpec,
    build_problem,
    main,
    run_experiment,
    run_random,
)
from flashopt.core import ObjectiveSchema, Problem, RunResult, Sense
from flashopt.dominance import front0
from flashopt.metrics import gd, igd
from flashopt.synth import make_synthetic

from conftest import brute_binary_dominates, reference_dump_csv


def small_table(tmp_path, rows=100):
    lines = ["x,y,-f1,-f2"]
    for i in range(rows):
        x = i / (rows - 1)
        lines.append(f"{x},{1 - x},{x},{1 - x}")
    path = tmp_path / "prob.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestDumpCsv:
    """_dump_csv writes the bytes of the cell-by-cell reference formatter."""

    @staticmethod
    def dump_both(x, y):
        x, y = np.array(x, dtype=float), np.array(y, dtype=float)
        problem = Problem(
            name="p",
            decision_names=tuple(f"d{j}" for j in range(x.shape[1])),
            schema=ObjectiveSchema(
                tuple(f"o{j}" for j in range(y.shape[1])),
                tuple(Sense.MIN if j % 2 else Sense.MAX for j in range(y.shape[1])),
            ),
            sampler=lambda rng, n: None,
            evaluator=lambda x: None,
        )
        result = RunResult(np.arange(len(x)), x, y, np.arange(len(x)))
        return cli._dump_csv(problem, result), reference_dump_csv(problem, result)

    def test_signed_zeros_and_awkward_floats(self):
        cells = [-0.0, 0.0, 0.1 + 0.2, 5e-324, 1e16]
        got, want = self.dump_both(
            [cells, cells[::-1], [0.0, -0.0, 0.3, 1e16, 5e-324]],
            [[-0.0, 0.0], [0.1 + 0.2, 0.3], [5e-324, -5e-324]],
        )
        assert got == want
        assert "-0.0,0.0,0.30000000000000004,5e-324,1e+16" in got

    def test_monrp_run_dump(self):
        problem = build_problem("monrp:20-3-2-10-60", 200, 3)
        result = cli.run_nsga2(problem, cli.Nsga2Config(8, 3, seed=3))
        assert cli._dump_csv(problem, result) == reference_dump_csv(problem, result)


class TestRunRandom:
    def test_budget_of_one(self):
        prob = make_synthetic("line", 100)
        res = run_random(prob, 1, seed=4)
        assert res.evals == 1
        assert res.front.tolist() == [0]

    def test_full_budget_finds_true_front(self):
        prob = make_synthetic("sphere2", 64)
        res = run_random(prob.fresh(), 64, seed=4)
        want = {tuple(v) for v in prob.y[front0(prob.y, prob.schema)].tolist()}
        assert {tuple(v) for v in res.y[res.front].tolist()} == want

    def test_exact_budget(self):
        prob = make_synthetic("line", 100)
        assert run_random(prob, 17, seed=1).evals == 17

    def test_budget_above_pool_rejected(self):
        prob = make_synthetic("line", 50)
        with pytest.raises(ValueError):
            run_random(prob, 51, seed=0)


class TestBuildProblem:
    def test_monrp_spec_string(self):
        prob = build_problem("monrp:50-4-5-0-110", pool_n=10, base_seed=1)
        assert prob.name == "monrp-50-4-5-0-110"
        assert prob.decision_arity == 50

    def test_monrp_spec_malformed(self):
        with pytest.raises(ValueError):
            build_problem("monrp:50-4", pool_n=10, base_seed=1)

    def test_synth_spec_string(self):
        prob = build_problem("synth:step", pool_n=64, base_seed=1)
        assert prob.pool_size == 64

    def test_tabular_path(self, tmp_path):
        prob = build_problem(str(small_table(tmp_path)), pool_n=100, base_seed=1)
        assert prob.pool_size == 100


class TestRunExperiment:
    def test_row_shape_and_flash_floor(self, tmp_path):
        spec = ExperimentSpec(
            problem=str(small_table(tmp_path)),
            algorithms=["flash"],
            repeats=1,
            seed=3,
            pool=10_000,
        )
        result = run_experiment(spec)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.algo == "flash"
        assert row.evals >= 20

    def test_shared_reference_front(self):
        spec = ExperimentSpec(
            problem="synth:sphere2",
            algorithms=["flash", "random"],
            repeats=2,
            seed=1,
            pool=150,
            size0=10,
        )
        result = run_experiment(spec)
        assert len(result.rows) == 4
        # Budget matching: random mirrors flash's evals within each repeat.
        by_key = {(r.run, r.algo): r for r in result.rows}
        for run in (0, 1):
            assert by_key[(run, "random")].evals == by_key[(run, "flash")].evals
        # The reference front pools every run's best points: each best point
        # is on it or binary-dominated by it, and it holds nothing else.
        schema = build_problem(spec.problem, spec.pool, spec.seed).schema
        senses = [s.value for s in schema.senses]
        ref = result.ref.points
        bests = {key: [tuple(v) for v in res.y[res.front].tolist()]
                 for key, res in result.results.items()}
        for key, points in bests.items():
            for p in points:
                assert p in ref or any(brute_binary_dominates(q, p, senses) for q in ref), key
            y_best = np.array(points)
            assert by_key[key].gd == gd(y_best, result.ref, schema)
            assert by_key[key].igd == igd(y_best, result.ref, schema)
        assert set(ref) <= {p for points in bests.values() for p in points}

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            ExperimentSpec(problem="synth:line", algorithms=["simulated_annealing"])

    def test_repeated_algorithm_rejected(self):
        with pytest.raises(ValueError, match=r"\['flash'\] listed more than once"):
            ExperimentSpec(problem="synth:line", algorithms=["flash", "flash", "random"])

    def test_pool_drawn_only_for_flash_or_sway(self, monkeypatch):
        sizes = []
        real = Problem.sample_pool

        def spy(self, n, rng):
            sizes.append(n)
            return real(self, n, rng)

        monkeypatch.setattr(Problem, "sample_pool", spy)
        spec = ExperimentSpec(problem="monrp:12-3-2-20-50", algorithms=["nsga2", "random"],
                              repeats=2, pool=3000, pop=8, generations=2)
        run_experiment(spec)
        # NSGA-II's pop-sized start and random's own budget-sized draws, per repeat
        assert sizes == [8, 100] * 2

    def test_results_file_deterministic(self, tmp_path):
        out1 = tmp_path / "a" / "results.csv"
        out2 = tmp_path / "b" / "results.csv"
        for out in (out1, out2):
            spec = ExperimentSpec(
                problem="synth:step",
                algorithms=["flash", "nsga2"],
                repeats=2,
                seed=9,
                pool=120,
                size0=8,
                pop=8,
                generations=3,
                out=out,
            )
            run_experiment(spec)
        assert out1.read_bytes() == out2.read_bytes()
        runs1 = sorted((out1.parent / "runs").iterdir())
        runs2 = sorted((out2.parent / "runs").iterdir())
        assert [p.name for p in runs1] == [p.name for p in runs2]
        for p1, p2 in zip(runs1, runs2):
            assert p1.read_bytes() == p2.read_bytes()


class TestProtocolInvariants:
    """Seeded-repeat invariants of the protocol: a run depends on its
    problem, its repeat's seed and, for random, its budget alone."""

    @staticmethod
    def experiment(problem, algorithms, **given):
        settings = dict(repeats=2, seed=1, pool=400, pop=20, generations=5) | given
        return run_experiment(ExperimentSpec(problem=problem, algorithms=algorithms,
                                             **settings))

    @pytest.mark.parametrize("problem", ["synth:step", "monrp:20-3-3-10-80"])
    def test_sway_and_nsga2_ignore_the_other_algorithms(self, problem):
        every = self.experiment(problem, list(cli.ALGORITHMS)).run_dumps
        for algo in ("sway", "nsga2"):
            alone = self.experiment(problem, [algo]).run_dumps
            assert alone == {key: every[key] for key in alone}

    def test_random_alone_matches_random_next_to_flash(self):
        paired = self.experiment("synth:step", ["flash", "random"], repeats=1)
        budget = paired.results[(0, "flash")].evals
        alone = self.experiment("synth:step", ["random"], repeats=1, budget=budget)
        assert alone.run_dumps[(0, "random")] == paired.run_dumps[(0, "random")]

    def test_a_repeat_depends_on_its_seed_alone(self):
        third = self.experiment("synth:step", list(cli.ALGORITHMS), repeats=3, seed=4)
        first = self.experiment("synth:step", list(cli.ALGORITHMS), repeats=1, seed=6)
        assert first.run_dumps == {
            (0, algo): third.run_dumps[(2, algo)] for algo in cli.ALGORITHMS
        }


class TestMainRun:
    def test_end_to_end_run_and_stats(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = main(
            [
                "run",
                "--problem",
                "synth:line",
                "--algo",
                "flash,random",
                "--repeats",
                "2",
                "--seed",
                "1",
                "--pool",
                "200",
                "--init",
                "10",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "run,algo,evals,gd,igd,wall_ms"
        assert len(lines) == 5
        keys = [tuple(ln.split(",")[:2]) for ln in lines[1:]]
        assert keys == sorted(keys)
        assert all(ln.endswith("0.000000") for ln in lines[1:])  # no --timings

        code = main(
            ["stats", "--in", str(out), "--measure", "igd", "--baseline", "random"]
        )
        assert code == 0
        stats_out = capsys.readouterr().out
        assert "measure=igd baseline=random" in stats_out
        assert "rank=" in stats_out

    def test_random_matches_flash_whatever_the_order(self, tmp_path):
        outs = []
        for order in ("flash,random", "random,flash"):
            out = tmp_path / order.replace(",", "_") / "results.csv"
            argv = ["run", "--problem", "synth:step", "--algo", order,
                    "--repeats", "2", "--pool", "200", "--out", str(out)]
            assert main(argv) == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        rows = [ln.split(",") for ln in outs[1].read_text().splitlines()[1:]]
        evals = {(run, algo): int(n) for run, algo, n, *_ in rows}
        for run in ("0", "1"):
            assert evals[(run, "random")] == evals[(run, "flash")]

    def test_timings_change_only_wall_ms(self, tmp_path):
        dirs = [tmp_path / "plain", tmp_path / "timed"]
        for out_dir, flag in zip(dirs, ([], ["--timings"])):
            argv = ["run", "--problem", "synth:step", "--pool", "60", "--algo", "flash,random",
                    "--repeats", "1", "--out", str(out_dir / "results.csv"), *flag]
            assert main(argv) == 0
        plain, timed = ([ln.rsplit(",", 1) for ln in (d / "results.csv").read_text().splitlines()]
                        for d in dirs)
        assert len(plain) == 3 and plain[0][1] == "wall_ms"
        assert [row[0] for row in plain] == [row[0] for row in timed]
        assert all(row[1] == "0.000000" for row in plain[1:])
        assert all(float(row[1]) > 0 for row in timed[1:])
        runs = [sorted((d / "runs").iterdir()) for d in dirs]
        assert [p.name for p in runs[0]] == [p.name for p in runs[1]] != []
        for a, b in zip(*runs):
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("algo, flags, given", [
        ("flash,nsga2", [], {}),
        ("flash,nsga2", ["--init", "7", "--gens", "3"], {"size0": 7, "generations": 3}),
        (" flash , nsga2 ", [], {}),
    ], ids=["defaults", "init-gens", "spaced-names"])
    def test_parser_fills_the_spec(self, tmp_path, monkeypatch, algo, flags, given):
        specs = []

        def spy(spec):
            specs.append(spec)
            return SimpleNamespace(rows=[])

        monkeypatch.setattr(cli, "run_experiment", spy)
        out = str(tmp_path / "results.csv")
        assert main(["run", "--problem", "synth:step", "--algo", algo, "--out", out, *flags]) == 0
        assert specs == [ExperimentSpec("synth:step", ["flash", "nsga2"], out=Path(out), **given)]

    def test_empty_algorithm_list_exits_1_naming_the_choices(self, tmp_path, capsys):
        argv = ["run", "--problem", "synth:step", "--algo", ",",
                "--pool", "200", "--out", str(tmp_path / "results.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "no algorithm given" in err and "'flash', 'sway', 'nsga2', 'random'" in err
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("algo, flag, message", [
        ("nsga2,random", ["--budget", "0"], "budget must be at least 1"),
        ("nsga2,flash", ["--lives", "0"], "lives must be at least 1"),
        ("flash,nsga2", ["--gens", "0"], "generations must be at least 1"),
        ("nsga2,flash", ["--init", "500"], "size0=500 exceeds pool of 200"),
        ("flash,nsga2", ["--pop", "400"], "pop_size 400 exceeds pool of 200"),
        ("nsga2,sway", ["--problem", "monrp:10-2-2-2-90", "--pool", "1"],
         "pool must hold at least 2 points"),
        ("nsga2,random", ["--budget", "500"], "budget 500 exceeds pool of 200"),
        ("flash,nsga2", ["--seed", "-1"], "seed must be at least 0"),
        ("flash,nsga2", ["--repeats", "0"], "repeats must be at least 1"),
        ("flash,nsga2", ["--problem", "synth:nope"],
         "unknown synthetic 'nope' (choose from ['line', 'sphere2', 'step'])"),
        ("flash,nsga2", ["--problem", "synth:line", "--pool", "1"],
         "line needs at least 2 points"),
        ("flash,nsga2", ["--problem", "monrp:2-1-1-100-50"],
         "cannot place 2 acyclic edges among 2 nodes"),
    ], ids=["budget", "lives", "gens", "size0-over-pool", "pop-over-pool", "sway-pool",
            "budget-over-pool", "negative-seed", "repeats", "unknown-synth", "synth-pool",
            "monrp-edges"])
    def test_bad_flag_exits_1_before_any_run(self, tmp_path, capsys, monkeypatch,
                                             algo, flag, message):
        runs = []

        def spy(real):
            def counted(*args):
                runs.append(real.__name__)
                return real(*args)
            return counted

        for name in ("run_flash", "run_nsga2"):
            monkeypatch.setattr(cli, name, spy(getattr(cli, name)))
        argv = ["run", "--problem", "synth:step", "--algo", algo, "--pool", "200",
                "--pop", "8", "--gens", "2", *flag, "--out", str(tmp_path / "results.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert runs == []

    @pytest.mark.parametrize("header, fault", [
        (None, ": empty file"),
        ("a,,-b", ":1: empty header name in column 2"),
        ("a,-", ":1: bare objective prefix in column 2"),
        ("-b,+c", ":1: no decision columns"),
        ("a,-b,+b", ":1: duplicate objective names"),
        ("a,a,-b", ":1: duplicate decision names"),
    ], ids=["empty", "empty-name", "bare-prefix", "no-decisions", "dup-objectives",
            "dup-decisions"])
    def test_header_fault_exits_1_naming_the_file(self, tmp_path, capsys, header, fault):
        path = tmp_path / "prob.csv"
        path.write_text("" if header is None else f"{header}\n1,2,3\n", encoding="utf-8")
        argv = ["run", "--problem", str(path), "--algo", "flash",
                "--out", str(tmp_path / "results.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {path}{fault}\n"

    def test_miscounted_evaluations_exit_1_before_writing(self, tmp_path, capsys, monkeypatch):
        real = cli.run_nsga2

        def undercounted(*args):
            result = real(*args)
            result.evals -= 1
            return result

        monkeypatch.setattr(cli, "run_nsga2", undercounted)
        argv = ["run", "--problem", "synth:step", "--algo", "nsga2", "--pool", "200",
                "--pop", "8", "--gens", "2", "--out", str(tmp_path / "results.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: run 0 nsga2: reports 23 evaluations, the problem counted 24\n"
        assert not (tmp_path / "results.csv").exists()

    def test_non_integer_monrp_field_exits_1_with_the_format(self, tmp_path, capsys):
        argv = ["run", "--problem", "monrp:5-2-2-x-90", "--algo", "flash",
                "--out", str(tmp_path / "results.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: expected monrp:N-P-M-dep-funding, got 'monrp:5-2-2-x-90'\n"

    def test_repeated_algorithm_exits_1(self, tmp_path, capsys):
        argv = ["run", "--problem", "synth:step", "--algo", "flash,flash,random",
                "--pool", "200", "--out", str(tmp_path / "results.csv")]
        assert main(argv) == 1
        assert "listed more than once" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_tree_subcommand(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        assert (
            main(
                [
                    "run",
                    "--problem",
                    "synth:sphere2",
                    "--algo",
                    "flash",
                    "--repeats",
                    "1",
                    "--seed",
                    "2",
                    "--pool",
                    "150",
                    "--init",
                    "10",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            ["tree", "--in", str(tmp_path), "--run-id", "0", "--algo", "flash"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "nodes=" in printed and "leaves=" in printed
        body, stats_line = printed.rstrip().rsplit("\n", 1)
        nodes = int(stats_line.split()[0].split("=")[1])
        leaves = int(stats_line.split()[1].split("=")[1])
        assert nodes == 2 * leaves - 1

    def test_tree_of_a_one_row_run_names_the_dump(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["run", "--problem", "synth:step", "--pool", "50", "--algo", "random",
                "--budget", "1", "--repeats", "1", "--out", "one/results.csv"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["tree", "--in", "one", "--run-id", "0", "--algo", "random"]) == 1
        err = capsys.readouterr().err
        assert err == "error: one/runs/run0_random.csv: need at least 2 evaluated points\n"

    def test_tree_of_a_missing_run_exits_1(self, tmp_path, capsys):
        assert main(["tree", "--in", str(tmp_path), "--run-id", "0", "--algo", "flash"]) == 1
        dump = tmp_path / "runs" / "run0_flash.csv"
        assert capsys.readouterr().err == f"error: no stored run at {dump}\n"

    def test_unknown_algorithm_exits_nonzero(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--problem",
                "synth:line",
                "--algo",
                "destiny",
                "--repeats",
                "1",
                "--pool",
                "50",
                "--out",
                str(tmp_path / "r.csv"),
            ]
        )
        assert code == 1
        assert "unknown algorithm" in capsys.readouterr().err

    def test_unreadable_problem_exits_nonzero(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--problem",
                str(tmp_path / "nope.csv"),
                "--algo",
                "flash",
                "--repeats",
                "1",
                "--out",
                str(tmp_path / "r.csv"),
            ]
        )
        assert code == 1

    def test_non_finite_decision_cell_exits_nonzero(self, tmp_path, capsys):
        # A NaN decision once made CART split forever; now the load rejects it.
        table = tmp_path / "bad.csv"
        table.write_text("x,z,-y\n1,0,3\n2,1,2\n3,nan,1\n4,0,4\n5,1,0\n", encoding="utf-8")
        argv = ["run", "--problem", str(table), "--algo", "flash,sway", "--init", "2",
                "--repeats", "1", "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 1
        assert f"{table}:4: " in capsys.readouterr().err

    def test_line_separator_inside_a_cell_reports_its_line(self, tmp_path, capsys):
        # Lines end at CR and LF only, as in csv: U+2028 is cell text, so
        # line 3 is the bad one and line 4 stays a row of its own.
        table = tmp_path / "sep.csv"
        table.write_text("x,-y\n1,3\n2,2\u20284\n3,1\n", encoding="utf-8")
        argv = ["run", "--problem", str(table), "--algo", "flash", "--init", "2",
                "--repeats", "1", "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {table}:3: non-numeric or non-finite cell '2\u20284' in column 2\n"
        )

    def test_undecodable_table_reports_its_line(self, tmp_path, capsys):
        table = tmp_path / "latin1.csv"
        table.write_bytes(b"x,-y\n1,3\n2,2\n3,1 \xff\n")
        argv = ["run", "--problem", str(table), "--algo", "flash", "--init", "2",
                "--repeats", "1", "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {table}:4: not UTF-8 text (byte 0xff")
        assert "Traceback" not in err


class TestMainStats:
    def test_baseline_zero_reports_inf(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        rows = ["run,algo,evals,gd,igd,wall_ms"]
        for run in range(4):
            rows.append(f"{run},base,10,0.000000,0.000000,0.000000")
            rows.append(f"{run},other,10,0.500000,0.500000,0.000000")
        results.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(
            ["stats", "--in", str(results), "--measure", "gd", "--baseline", "base"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "pct_of_baseline=inf" in printed
        assert "pct_of_baseline=100.0" in printed

    def test_two_separated_algorithms_two_ranks(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        rows = ["run,algo,evals,gd,igd,wall_ms"]
        for run in range(20):
            rows.append(f"{run},good,10,0.{run:02d},0.1,0")
            rows.append(f"{run},bad,10,9.{run:02d},0.1,0")
        results.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert (
            main(["stats", "--in", str(results), "--measure", "gd", "--baseline", "good"])
            == 0
        )
        printed = capsys.readouterr().out
        assert "rank=1 algo=good" in printed
        assert "rank=2 algo=bad" in printed

    def test_unknown_baseline_exits_1(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        results.write_text("run,algo,evals,gd,igd,wall_ms\n0,a,5,0.1,0.1,0\n", encoding="utf-8")
        argv = ["stats", "--in", str(results), "--measure", "gd", "--baseline", "zzz"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: baseline algorithm 'zzz' not in results\n"

    def test_trailing_blank_line_is_skipped(self, tmp_path, capsys):
        text = "run,algo,evals,gd,igd,wall_ms\n0,a,5,0.1,0.1,0\n1,a,5,0.3,0.1,0\n"
        printed = []
        for name, body in (("plain.csv", text), ("blank.csv", text + "\n")):
            (tmp_path / name).write_text(body, encoding="utf-8")
            argv = ["stats", "--in", str(tmp_path / name), "--measure", "gd", "--baseline", "a"]
            assert main(argv) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert "rank=1 algo=a median=0.200000" in printed[1]

    def test_missing_measure_column(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        results.write_text("run,algo,evals\n0,a,5\n", encoding="utf-8")
        code = main(
            ["stats", "--in", str(results), "--measure", "gd", "--baseline", "a"]
        )
        assert code == 1

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected_with_location(self, tmp_path, capsys, cell):
        results = tmp_path / "results.csv"
        results.write_text(
            f"run,algo,evals,gd,igd,wall_ms\n0,a,5,0.1,0.1,0\n1,a,5,{cell},0.1,0\n",
            encoding="utf-8",
        )
        code = main(["stats", "--in", str(results), "--measure", "gd", "--baseline", "a"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{results}:3: non-numeric or non-finite cell '{cell}' in column gd" in err

    def test_short_row_rejected_with_location(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        results.write_text("run,algo,evals,gd\n0,a,5,0.1\n1,a\n", encoding="utf-8")
        code = main(["stats", "--in", str(results), "--measure", "gd", "--baseline", "a"])
        assert code == 1
        assert f"{results}:3: expected 4 cells, got 2" in capsys.readouterr().err

    def test_missing_algo_column_rejected(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        results.write_text("run,evals,gd\n0,5,0.1\n", encoding="utf-8")
        code = main(["stats", "--in", str(results), "--measure", "gd", "--baseline", "a"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{results}:1: results file has no 'algo' column" in err

    def test_undecodable_results_report_their_line(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        results.write_bytes(b"run,algo,evals,gd\n0,a,5,0.1\r\n1,\xe9t\xe9,5,0.2\n")
        code = main(["stats", "--in", str(results), "--measure", "gd", "--baseline", "a"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {results}:3: not UTF-8 text (byte 0xe9")
        assert "Traceback" not in err

    @pytest.mark.parametrize("header", ["run,algo,evals,gd", "gd,run,algo,evals"])
    def test_byte_order_mark_is_ignored(self, tmp_path, capsys, header):
        cols = header.split(",")
        rows = [dict(run=r, algo=a, evals=5, gd=g)
                for r, (a, g) in enumerate([("a", 0.1), ("b", 0.3), ("a", 0.2), ("b", 0.4)])]
        text = header + "\n" + "".join(",".join(str(row[c]) for c in cols) + "\n" for row in rows)
        argv = ["stats", "--measure", "gd", "--baseline", "a", "--in"]
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert main(argv + [str(plain)]) == 0
        want = capsys.readouterr().out
        assert main(argv + [str(marked)]) == 0
        assert capsys.readouterr().out == want
        assert "algo=a median=0.150000" in want

    def test_text_cell_rejected_with_location(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        results.write_text("run,algo,evals,gd\n0,a,5,0.1\n1,b,abc,0.2\n", encoding="utf-8")
        code = main(["stats", "--in", str(results), "--measure", "evals", "--baseline", "a"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{results}:3: non-numeric or non-finite cell 'abc' in column evals" in err


class TestNoMaskedArrays:
    """A plain np.unique, with no return_* flag, imports numpy.ma (about
    0.7 MB of resident memory under numpy 2.4). Neither kind of repeat,
    nor its tree call, should pull it in."""

    SCRIPT = """
import sys
from flashopt.cli import main
out = sys.argv[1]
for name, problem, algos in (
    ("step", "synth:step", "flash,sway,nsga2,random"),
    ("monrp", "monrp:12-3-2-20-50", "flash,nsga2,random"),
):
    assert main(["run", "--problem", problem, "--algo", algos, "--repeats", "1",
                 "--pool", "200", "--pop", "8", "--gens", "3", "--init", "8",
                 "--lives", "3", "--out", f"{out}/{name}/results.csv"]) == 0
    assert main(["tree", "--in", f"{out}/{name}", "--run-id", "0", "--algo", "nsga2"]) == 0
print("numpy.ma" in sys.modules, file=sys.stderr)
"""

    def test_repeats_do_not_import_numpy_ma(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr.splitlines()[-1] == "False"
