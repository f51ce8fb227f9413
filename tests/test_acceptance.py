"""Acceptance suite: one test per release criterion, at full stated scale.

The expensive protocol experiments (20 seeded repeats, pooled reference
fronts) and the domination trees of their flash and nsga2 runs are built
once per session and shared by the criteria that read them. Each criterion
prints a single PASS line when it holds; run with
`pytest -s tests/test_acceptance.py` to see them.

The sha256 digests of every results.csv text, run dump and rendered tree
are locked in tests/golden/acceptance_digests.json, so the scale-dependent
paths that the small golden cases barely reach cannot drift unseen. A
deliberate change of behaviour re-freezes them with

    PYTHONPATH=src python tests/test_acceptance.py

and says so in CHANGES.md.
"""

import hashlib
import json
import math
import platform
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from flashopt.cli import ExperimentSpec, build_problem, run_experiment
from flashopt.core import ObjectiveSchema, Sense
from flashopt.dominance import (
    binary_dominates,
    indicator_dominates,
    indicator_value,
    nondominated_sort,
)
from flashopt.domtree import build_domination_tree, render, tree_stats
from flashopt.metrics import ReferenceFront, gd, igd, reference_front
from flashopt.monrp import MonrpInstance, evaluate_plan, generate, is_feasible, sample_plans
from flashopt.stats import a12, scott_knott
from flashopt.sway import run_sway
from flashopt.synth import make_synthetic

from conftest import brute_binary_dominates, brute_front_partition, whole_pool

BASE_SEED = 3
REPEATS = 20
PROTOCOL_ALGOS = ["flash", "nsga2", "random"]
TREE_ALGOS = ("flash", "nsga2")
DIGESTS = Path(__file__).resolve().parent / "golden" / "acceptance_digests.json"

EXPERIMENT_SPECS = {
    "monrp-0-110": ("monrp:50-4-5-0-110", 10_000),
    "monrp-4-90": ("monrp:50-4-5-4-90", 10_000),
    "line": ("synth:line", 1_200),
    "sphere2": ("synth:sphere2", 1_200),
    "step": ("synth:step", 1_200),
}


def ok(n: int, label: str) -> None:
    print(f"criterion {n} ({label}): PASS", flush=True)


def run_experiments() -> dict:
    """Spec name -> (its 20-repeat experiment, wall seconds)."""
    out = {}
    for name, (problem, pool) in EXPERIMENT_SPECS.items():
        spec = ExperimentSpec(
            problem=problem,
            algorithms=list(PROTOCOL_ALGOS),
            repeats=REPEATS,
            seed=BASE_SEED,
            pool=pool,
        )
        started = time.perf_counter()
        out[name] = (run_experiment(spec), time.perf_counter() - started)
    return out


def domination_trees(experiments) -> dict:
    """(spec name, run, algo) -> the domination tree of that run."""
    trees = {}
    for name, (result, _) in experiments.items():
        problem, pool = EXPERIMENT_SPECS[name]
        base = build_problem(problem, pool, BASE_SEED)
        for (run, algo), rr in sorted(result.results.items()):
            if algo in TREE_ALGOS:
                trees[(name, run, algo)] = build_domination_tree(
                    rr.x,
                    rr.y,
                    base.schema,
                    base.decision_names,
                )
    return trees


def digests(experiments, trees) -> dict:
    """Spec name -> output name -> sha256 of that output's text."""

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    out = {}
    for name, (result, _) in sorted(experiments.items()):
        entry = {"results.csv": sha(result.rows_text)}
        for (run, algo), text in sorted(result.run_dumps.items()):
            entry[f"runs/run{run}_{algo}.csv"] = sha(text)
        for (spec, run, algo), dt in sorted(trees.items()):
            if spec == name:
                entry[f"tree_run{run}_{algo}.txt"] = sha(render(dt))
        out[name] = entry
    return out


@pytest.fixture(scope="session")
def experiments():
    return run_experiments()


@pytest.fixture(scope="session")
def trees(experiments):
    return domination_trees(experiments)


def medians(result, algo, field):
    return statistics.median(
        getattr(r, field) for r in result.rows if r.algo == algo
    )


def test_criterion_1_dominance_oracle_equivalence():
    rng = random.Random(1001)
    started = time.perf_counter()
    implied = 0
    for k in (2, 3, 4):
        schema = ObjectiveSchema(tuple(f"o{i}" for i in range(k)), (Sense.MIN,) * k)
        for _ in range(1000):
            x = tuple(rng.random() for _ in range(k))
            y = tuple(rng.random() for _ in range(k))
            want = brute_binary_dominates(x, y, ["min"] * k)
            assert binary_dominates(x, y, schema) == want
            if want:
                assert indicator_dominates(x, y, schema)
                implied += 1
    elapsed = time.perf_counter() - started
    assert implied > 100
    assert elapsed < 5.0
    ok(1, "dominance oracle equivalence")


def test_criterion_2_front_sort_equivalence():
    rng = random.Random(2002)
    started = time.perf_counter()
    for _ in range(50):
        k = rng.choice([2, 3, 4])
        n = rng.randint(2, 200)
        schema = ObjectiveSchema(tuple(f"o{i}" for i in range(k)), (Sense.MIN,) * k)
        vectors = [
            tuple(round(rng.uniform(0, 5), 1) for _ in range(k)) for _ in range(n)
        ]
        got = [list(f) for f in nondominated_sort(np.array(vectors), schema)]
        assert got == brute_front_partition(vectors, ["min"] * k)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    ok(2, "front-sort equivalence")


def test_criterion_3_indicator_arithmetic():
    rng = random.Random(3003)
    for _ in range(100):
        k = rng.choice([1, 2, 3, 4])
        schema = ObjectiveSchema(
            tuple(f"o{i}" for i in range(k)),
            tuple(rng.choice([Sense.MIN, Sense.MAX]) for _ in range(k)),
        )
        x = tuple(rng.uniform(-100, 100) for _ in range(k))
        assert abs(indicator_value(x, x, schema) - (-1.0)) <= 1e-12
    min2 = ObjectiveSchema(("f1", "f2"), (Sense.MIN, Sense.MIN))
    assert abs(indicator_value((0, 0), (1, 1), min2) - (-math.exp(0.5))) <= 1e-9
    ok(3, "indicator arithmetic")


def test_criterion_4_evaluation_counts(experiments):
    total_wall = 0.0
    for name in ("monrp-0-110", "monrp-4-90"):
        result, wall = experiments[name]
        total_wall += wall
        nsga2_evals = [r.evals for r in result.rows if r.algo == "nsga2"]
        assert all(e == 5100 for e in nsga2_evals)
        flash_median = medians(result, "flash", "evals")
        assert flash_median <= 0.10 * statistics.median(nsga2_evals), name
    assert total_wall < 600.0
    ok(4, "evaluation-count reproduction")


def test_criterion_5_sway_budget_bound():
    base = make_synthetic("line", 10_000)
    pool = whole_pool(base)
    worst = 0
    for seed in range(REPEATS):
        res = run_sway(base.fresh(), pool, BASE_SEED + seed)
        worst = max(worst, res.evals)
        assert res.evals <= 130, (seed, res.evals)
    ok(5, f"recursive-bisection budget bound (max {worst} evals)")


def test_criterion_6_effectiveness_floor(experiments):
    for name, (result, _) in experiments.items():
        flash_igd = medians(result, "flash", "igd")
        random_igd = medians(result, "random", "igd")
        assert flash_igd <= random_igd, (name, flash_igd, random_igd)
    ok(6, "guided-search effectiveness floor")


def test_criterion_7_domination_tree_sizes(trees):
    for name in EXPERIMENT_SPECS:
        sizes = {algo: [] for algo in TREE_ALGOS}
        for (spec, _, algo), dt in trees.items():
            if spec == name:
                sizes[algo].append(tree_stats(dt))
        for axis, label in ((0, "nodes"), (1, "leaves")):
            flash_med = statistics.median(s[axis] for s in sizes["flash"])
            nsga2_med = statistics.median(s[axis] for s in sizes["nsga2"])
            assert flash_med < nsga2_med, (name, label, flash_med, nsga2_med)
    ok(7, "domination-tree comprehensibility")


def test_acceptance_scale_digests(experiments, trees):
    frozen = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = digests(experiments, trees)
    assert sorted(got) == sorted(frozen["digests"])
    for name, entry in sorted(got.items()):
        want = frozen["digests"][name]
        assert sorted(entry) == sorted(want), name
        changed = [key for key in sorted(want) if entry[key] != want[key]]
        assert not changed, (
            f"{name}: {len(changed)} outputs differ from the digests frozen under "
            f"numpy {frozen['numpy']} on {frozen['machine']}, first {changed[0]}"
        )


def test_criterion_8_metric_identities():
    rng = random.Random(8008)
    min2 = ObjectiveSchema(("f1", "f2"), (Sense.MIN, Sense.MIN))
    for _ in range(20):
        ref = reference_front(
            [(rng.random(), rng.random()) for _ in range(rng.randint(3, 30))], min2
        )
        assert gd(ref.points, ref, min2) == 0.0
        assert igd(ref.points, ref, min2) == 0.0
    diagonal = ReferenceFront(
        points=((0.0, 0.0), (1.0, 1.0)), lo=(0.0, 0.0), hi=(1.0, 1.0)
    )
    assert abs(igd([(0, 0)], diagonal, min2) - math.sqrt(2) / 2) <= 1e-9
    ref = reference_front([(0, 1), (0.5, 0.5), (1, 0)], min2)
    obtained = [(0.5, 0.5)]
    assert gd(obtained, ref, min2) == 0.0
    assert igd(obtained, ref, min2) > 0.0
    ok(8, "metric identities")


def test_criterion_9_statistics():
    rng = random.Random(9009)
    for _ in range(100):
        xs = [rng.uniform(-5, 5) for _ in range(rng.randint(1, 15))]
        ys = [rng.uniform(-5, 5) for _ in range(rng.randint(1, 15))]
        assert abs(a12(xs, ys) + a12(ys, xs) - 1.0) <= 1e-12
    assert a12([1, 2], [1, 3]) == 0.375
    for trial in range(100):
        value = float(rng.randint(0, 9))
        same = scott_knott([("a", [value] * 20), ("b", [value] * 20)])
        assert same.ranks == (1, 1), trial
        low = [rng.uniform(0, 1) for _ in range(20)]
        high = [rng.uniform(2, 3) for _ in range(20)]
        split = scott_knott([("worse", high), ("better", low)])
        assert split.rank_of("better") == 1 and split.rank_of("worse") == 2, trial
    ok(9, "effect-size statistics")


def test_criterion_10_monrp_formulas():
    inst = MonrpInstance(
        N=1,
        P=4,
        M=2,
        cost=(3.0,),
        risk=(2.0,),
        weight=(4.0, 1.0),
        importance=((5.0,), (2.0,)),
        deps=(),
        budget=(10.0,) * 4,
    )
    got = evaluate_plan(inst, [[1]])
    assert got.tolist() == [[86.0, 22.0, 3.0]]  # (4*22 - 2, 22, 3)

    rng = random.Random(1010)
    checked = 0
    while checked < 1000:
        scenario = generate(
            rng.randint(2, 30),
            rng.randint(2, 6),
            rng.randint(1, 5),
            rng.choice([0, 10, 40]),
            rng.choice([90, 110, 200]),
            seed=rng.randrange(10**9),
        )
        plan = [rng.randint(0, scenario.P) for _ in range(scenario.N)]
        movable = [i for i, x in enumerate(plan) if 1 <= x < scenario.P]
        if not movable:
            continue
        i = rng.choice(movable)
        delayed = list(plan)
        delayed[i] += 1
        before, after = evaluate_plan(scenario, [plan, delayed])[:, 0].tolist()
        assert after - before == -(scenario.scores[i] + scenario.risk[i])
        checked += 1

    tight = generate(30, 4, 5, 25, 85, seed=77)
    for seed in range(1000):
        plan = sample_plans(tight, random.Random(seed), 1)[0].tolist()
        assert is_feasible(tight, plan), seed
    ok(10, "release-planning formulas")


def test_criterion_11_determinism(tmp_path):
    outputs = []
    for leg in ("first", "second"):
        out = tmp_path / leg / "results.csv"
        spec = ExperimentSpec(
            problem="synth:step",
            algorithms=["flash", "nsga2", "random"],
            repeats=2,
            seed=17,
            pool=400,
            pop=12,
            generations=5,
            out=out,
        )
        run_experiment(spec)
        outputs.append(out)
    first, second = outputs
    assert first.read_bytes() == second.read_bytes()
    first_runs = sorted((first.parent / "runs").iterdir())
    second_runs = sorted((second.parent / "runs").iterdir())
    assert [p.name for p in first_runs] == [p.name for p in second_runs]
    for a, b in zip(first_runs, second_runs):
        assert a.read_bytes() == b.read_bytes()
    ok(11, "byte-identical reruns")


def freeze() -> None:
    experiments = run_experiments()
    frozen = {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": f"{platform.system()} {platform.machine()}",
        "digests": digests(experiments, domination_trees(experiments)),
    }
    DIGESTS.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"froze {sum(map(len, frozen['digests'].values()))} digests", file=sys.stderr)


if __name__ == "__main__":
    freeze()
