"""Tests of the protocol benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench
"""

import dataclasses
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench  # noqa: E402

sys.path.insert(0, str(bench.SRC))
from flashopt import cli  # noqa: E402

TINY = {
    "monrp-protocol": dataclasses.replace(
        bench.WORKLOADS["monrp-protocol"], problem="monrp:12-2-3-4-90", pool=300,
        pop=8, generations=2, setup_steps=2, min_ops=2),
    "tabular-protocol": dataclasses.replace(
        bench.WORKLOADS["tabular-protocol"], pool=200, pop=8, generations=2,
        setup_steps=2, min_ops=2),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "WORKLOADS", TINY)
    monkeypatch.setattr(bench, "WORK", tmp_path)


def run_main(workload: str, trace: int) -> tuple[list[str], dict]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = bench.main(["--workload", workload, "--seed", "3",
                           "--seconds", "0.01", "--trace", str(trace)])
    assert code == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_prints_every_end_to_end_metric(tiny, workload):
    lines, result = run_main(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(bench.END_TO_END)
    for name, (unit, _) in bench.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"metric {name} = ") and f" {unit}" in line for line in lines)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_traced_prints_every_per_layer_metric(tiny, workload):
    lines, result = run_main(workload, trace=1)
    assert result["correct"]
    spec = bench.per_layer_spec()
    assert set(result["metrics"]) == set(spec)
    for name, (unit, _) in spec.items():
        assert result["metrics"][name]["unit"] == unit


def test_wrong_nsga2_eval_count_is_counted_as_failed(monkeypatch, tmp_path):
    real = cli.run_nsga2

    def corrupted(*args, **kwargs):
        result = real(*args, **kwargs)
        result.evals += 1
        return result

    monkeypatch.setattr(cli, "run_nsga2", corrupted)
    report = bench.run_workload(TINY["monrp-protocol"], 1, 0.01, False, tmp_path)
    assert report.attempted >= 1
    assert report.failed == report.attempted
    assert not report.correct
    assert all(any("nsga2" in p for p in op.problems) for op in report.ops)


def test_operation_that_raises_is_counted_as_failed(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "run_flash", broken)
    report = bench.run_workload(TINY["tabular-protocol"], 1, 0.01, False, tmp_path)
    assert report.failed == report.attempted >= 1
    assert "boom" in report.ops[0].problems[0]


def test_check_experiment_flags_dominated_best_and_budget_mismatch():
    wl = TINY["monrp-protocol"]
    spec = cli.ExperimentSpec(problem=wl.problem, algorithms=list(wl.algorithms),
                              repeats=1, seed=5, pool=wl.pool, pop=wl.pop,
                              generations=wl.generations)
    result = cli.run_experiment(spec)
    schema = cli.build_problem(wl.problem, wl.pool, 5).schema
    assert bench.check_experiment(result, wl, schema) == []

    nsga = result.results[(0, "nsga2")]
    worst = min(nsga.evaluated, key=lambda ev: ev.objectives.values[0])
    nsga.best = nsga.best + [worst]
    result.rows = [dataclasses.replace(r, evals=r.evals + 1) if r.algo == "random" else r
                   for r in result.rows]
    problems = bench.check_experiment(result, wl, schema)
    assert any("dominated" in p for p in problems)
    assert any("random budget" in p for p in problems)


def test_check_tree_node_identity():
    assert bench.check_tree(0, "x<=1\n(2)\nnodes=3 leaves=2\n") == []
    assert bench.check_tree(0, "nodes=4 leaves=2\n")
    assert bench.check_tree(1, "")


def test_self_times_subtract_direct_children():
    tracer = bench.Tracer()
    tracer.spans.extend([
        ["bench", 0.0, 10.0, -1],
        ["cli", 1.0, 9.0, 0],
        ["cart.fit", 2.0, 5.0, 1],
        ["dominance.wins", 3.0, 4.0, 2],
        ["cart.fit", 6.0, 7.0, 1],
    ])
    assert tracer.self_times() == {
        "bench": 2.0, "cli": 4.0, "cart.fit": 3.0, "dominance.wins": 1.0}


def test_traced_self_times_sum_to_wall(tmp_path):
    report = bench.run_workload(TINY["monrp-protocol"], 2, 0.2, True, tmp_path)
    assert report.correct
    accounted = report.metrics["trace.accounted_ratio"][0]
    assert 0.97 <= accounted <= 1.0 + 1e-9
    assert report.metrics["monrp.sample.self_s"][0] > 0
    assert report.metrics["core.evaluate.calls"][0] > 0


def test_tracing_restores_every_wrapped_name():
    before = (cli.run_nsga2, cli.front0, cli.main, cli.Problem.evaluate)
    with bench.traced(bench.Tracer()):
        assert cli.run_nsga2 is not before[0]
        assert cli.Problem.evaluate is not before[3]
    assert (cli.run_nsga2, cli.front0, cli.main, cli.Problem.evaluate) == before


def test_missing_sources_exit_nonzero_without_result(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    out = io.StringIO()
    with redirect_stdout(out):
        code = bench.main(["--workload", "monrp-protocol", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert out.getvalue() == ""
