import pytest

from flashopt.cli import (
    ExperimentSpec,
    build_problem,
    main,
    run_experiment,
    run_random,
)
from flashopt.dominance import front0
from flashopt.synth import make_synthetic


def small_table(tmp_path, rows=100):
    lines = ["x,y,-f1,-f2"]
    for i in range(rows):
        x = i / (rows - 1)
        lines.append(f"{x},{1 - x},{x},{1 - x}")
    path = tmp_path / "prob.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestRunRandom:
    def test_budget_of_one(self):
        prob = make_synthetic("line", 100)
        res = run_random(prob, 1, seed=4)
        assert res.evals == 1
        assert res.best == res.evaluated

    def test_full_budget_finds_true_front(self):
        prob = make_synthetic("sphere2", 64)
        res = run_random(prob.fresh(), 64, seed=4)
        everything = [prob.fresh().evaluate(p) for p in prob.pool()]
        want = {e.objectives.values for e in front0(everything, prob.schema)}
        assert {e.objectives.values for e in res.best} == want

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

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            ExperimentSpec(problem="synth:line", algorithms=["simulated_annealing"])

    def test_repeated_algorithm_rejected(self):
        with pytest.raises(ValueError, match=r"\['flash'\] listed more than once"):
            ExperimentSpec(problem="synth:line", algorithms=["flash", "flash", "random"])

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

    def test_text_cell_rejected_with_location(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        results.write_text("run,algo,evals,gd\n0,a,5,0.1\n1,b,abc,0.2\n", encoding="utf-8")
        code = main(["stats", "--in", str(results), "--measure", "evals", "--baseline", "a"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{results}:3: non-numeric or non-finite cell 'abc' in column evals" in err
