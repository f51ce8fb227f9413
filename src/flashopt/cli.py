"""Command-line benchmark harness.

`run` executes optimizers on a problem with the seeded-repeat protocol:
every repeat r uses seed base+r, each algorithm gets its own problem
instance, and after all runs a single reference front pooled from every
algorithm's solutions yields GD/IGD per run. `tree` renders the domination
tree of one stored run, and `stats` ranks algorithms from a results file
with the Scott-Knott / a12 procedure.

Problem sources: a tabular measurement file, `monrp:N-P-M-dep-funding`, or
`synth:line|sphere2|step` (built-in tables sized by --pool).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .core import Problem, ProblemKind, RunResult, Sense, load_tabular
from .dominance import front0
from .flash import FlashConfig, run_flash
from .metrics import ReferenceFront, gd, igd, reference_front
from .monrp import as_problem, generate
from .nsga2 import Nsga2Config, run_nsga2
from .domtree import build_domination_tree, render, tree_stats
from .stats import scott_knott
from .sway import SwayConfig, run_sway
from .synth import SYNTHETICS, make_synthetic

ALGORITHMS = ("flash", "sway", "nsga2", "random")
DEFAULT_RANDOM_BUDGET = 100


@dataclass
class ExperimentSpec:
    problem: str
    algorithms: list[str]
    repeats: int = 20
    seed: int = 1
    pool: int = 10_000
    out: Path | None = None
    lives: int = 10
    size0: int = 20
    pop: int = 100
    generations: int = 50
    budget: int = DEFAULT_RANDOM_BUDGET  # random-search fallback when flash is absent
    timings: bool = False

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(
                f"unknown algorithm(s) {unknown}; choose from {list(ALGORITHMS)}"
            )
        repeated = sorted({a for a in self.algorithms if self.algorithms.count(a) > 1})
        if repeated:
            raise ValueError(f"algorithm(s) {repeated} listed more than once")


@dataclass
class ResultRow:
    run: int
    algo: str
    evals: int
    gd: float
    igd: float
    wall_ms: float


@dataclass
class ExperimentResult:
    rows: list[ResultRow]
    results: dict[tuple[int, str], RunResult]
    ref: ReferenceFront
    problem_name: str
    rows_text: str = ""
    run_dumps: dict[tuple[int, str], str] = field(default_factory=dict)


def run_random(problem: Problem, budget: int, seed: int) -> RunResult:
    """Budget-matched control: evaluate `budget` uniform pool samples."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    points = problem.sample_pool(budget, seed)
    evaluated = [problem.evaluate(p) for p in points]
    return RunResult(
        evaluated=evaluated,
        best=front0(evaluated, problem.schema),
        evals=len(evaluated),
        trace=[],
    )


def build_problem(source: str, pool_n: int, base_seed: int) -> Problem:
    """Instantiate the problem a spec string names.

    MONRP instances are generated once from the base seed, so every repeat
    of an experiment optimizes the same scenario.
    """
    if source.startswith("monrp:"):
        parts = source[len("monrp:") :].split("-")
        if len(parts) != 5:
            raise ValueError(f"expected monrp:N-P-M-dep-funding, got {source!r}")
        n, p, m, dep, funding = (int(v) for v in parts)
        inst = generate(n, p, m, dep, funding, seed=base_seed)
        return as_problem(inst, name=f"monrp-{n}-{p}-{m}-{dep}-{funding}")
    if source.startswith("synth:"):
        return make_synthetic(source[len("synth:") :], pool_n)
    return load_tabular(source)


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    base = build_problem(spec.problem, spec.pool, spec.seed)
    results: dict[tuple[int, str], RunResult] = {}
    walls: dict[tuple[int, str], float] = {}

    for r in range(spec.repeats):
        seed_r = spec.seed + r
        pool = None
        if any(a in ("flash", "sway", "random") for a in spec.algorithms):
            if base.kind is ProblemKind.TABULAR:
                pool = (
                    base.pool()
                    if spec.pool >= base.pool_size
                    else base.sample_pool(spec.pool, seed_r)
                )
            else:
                pool = base.sample_pool(spec.pool, seed_r)
        flash_evals: int | None = None
        # random runs last so it can match flash's count whatever the order
        for algo in sorted(spec.algorithms, key=lambda a: a == "random"):
            problem = base.fresh()
            started = time.perf_counter()
            if algo == "flash":
                result = run_flash(
                    problem, pool, FlashConfig(spec.size0, spec.lives, seed_r)
                )
                flash_evals = result.evals
            elif algo == "sway":
                result = run_sway(problem, pool, SwayConfig(seed=seed_r))
            elif algo == "nsga2":
                result = run_nsga2(
                    problem, Nsga2Config(spec.pop, spec.generations, seed=seed_r)
                )
            elif algo == "random":
                budget = flash_evals if flash_evals is not None else spec.budget
                result = run_random(problem, budget, seed_r)
            else:  # pragma: no cover - spec validation rejects this earlier
                raise ValueError(f"unknown algorithm {algo!r}")
            walls[(r, algo)] = (time.perf_counter() - started) * 1000.0
            results[(r, algo)] = result

    all_best = [
        ev.objectives for res in results.values() for ev in res.best
    ]
    ref = reference_front(all_best, base.schema)

    rows = []
    for (r, algo), res in sorted(results.items()):
        solutions = [ev.objectives for ev in res.best]
        rows.append(
            ResultRow(
                run=r,
                algo=algo,
                evals=res.evals,
                gd=gd(solutions, ref, base.schema),
                igd=igd(solutions, ref, base.schema),
                wall_ms=walls[(r, algo)] if spec.timings else 0.0,
            )
        )

    out = ExperimentResult(rows=rows, results=results, ref=ref, problem_name=base.name)
    out.rows_text = _results_csv(rows)
    for key, res in sorted(results.items()):
        out.run_dumps[key] = _dump_csv(base, res)
    if spec.out is not None:
        spec.out.parent.mkdir(parents=True, exist_ok=True)
        spec.out.write_text(out.rows_text, encoding="utf-8")
        run_dir = spec.out.parent / "runs"
        run_dir.mkdir(exist_ok=True)
        for (r, algo), text in out.run_dumps.items():
            (run_dir / f"run{r}_{algo}.csv").write_text(text, encoding="utf-8")
    return out


def _results_csv(rows: list[ResultRow]) -> str:
    lines = ["run,algo,evals,gd,igd,wall_ms"]
    for row in rows:
        lines.append(
            f"{row.run},{row.algo},{row.evals},"
            f"{row.gd:.6f},{row.igd:.6f},{row.wall_ms:.6f}"
        )
    return "\n".join(lines) + "\n"


def _dump_csv(problem: Problem, result: RunResult) -> str:
    """One evaluated point per line, in evaluation order, in the same
    tabular format the loader reads (so `tree` can rebuild the run)."""
    header = list(problem.decision_names) + [
        ("-" if s is Sense.MIN else "+") + name
        for name, s in zip(problem.schema.names, problem.schema.senses)
    ]
    lines = [",".join(header)]
    for ev in result.evaluated:
        cells = [repr(v) for v in ev.point.decisions]
        cells += [repr(v) for v in ev.objectives.values]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _cmd_run(args) -> int:
    spec = ExperimentSpec(
        problem=args.problem,
        algorithms=[a.strip() for a in args.algo.split(",") if a.strip()],
        repeats=args.repeats,
        seed=args.seed,
        pool=args.pool,
        out=Path(args.out),
        lives=args.lives,
        size0=args.init,
        pop=args.pop,
        generations=args.gens,
        budget=args.budget,
        timings=args.timings,
    )
    result = run_experiment(spec)
    print(f"wrote {len(result.rows)} rows to {spec.out}")
    return 0


def _cmd_tree(args) -> int:
    dump = Path(args.in_path) / "runs" / f"run{args.run_id}_{args.algo}.csv"
    if not dump.exists():
        raise FileNotFoundError(f"no stored run at {dump}")
    problem = load_tabular(dump)
    points = [problem.evaluate(p) for p in problem.pool()]
    dt = build_domination_tree(points, problem.schema, problem.decision_names)
    print(render(dt))
    nodes, leaves = tree_stats(dt)
    print(f"nodes={nodes} leaves={leaves}")
    return 0


def _read_measure(path: str, measure: str) -> dict[str, list[float]]:
    """Samples of one measure per algorithm from a results file. A missing
    column, a row of the wrong width, or a non-numeric or non-finite cell
    is rejected with its path:line."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        for name in (measure, "algo"):
            if name not in header:
                raise ValueError(f"{path}:1: results file has no '{name}' column")
        algo_col, col = header.index("algo"), header.index(measure)
        by_algo: dict[str, list[float]] = {}
        for cells in rows:
            if not cells:  # a blank line
                continue
            where = f"{path}:{rows.line_num}"
            if len(cells) != len(header):
                raise ValueError(f"{where}: expected {len(header)} cells, got {len(cells)}")
            try:
                value = float(cells[col])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(
                    f"{where}: non-numeric or non-finite cell '{cells[col]}' "
                    f"in column {measure}"
                )
            by_algo.setdefault(cells[algo_col], []).append(value)
    return by_algo


def _cmd_stats(args) -> int:
    by_algo = _read_measure(args.in_path, args.measure)
    if args.baseline not in by_algo:
        raise ValueError(f"baseline algorithm {args.baseline!r} not in results")
    groups = sorted(by_algo.items())
    ranked = scott_knott(groups, smaller_is_better=True)

    def median(vals):
        vals = sorted(vals)
        mid = len(vals) // 2
        return vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2

    base_med = median(by_algo[args.baseline])
    print(f"measure={args.measure} baseline={args.baseline}")
    for (label, samples), rank in zip(ranked.entries, ranked.ranks):
        med = median(samples)
        if base_med == 0:
            pct = "100.0" if med == 0 else "inf"
        else:
            pct = f"{100.0 * med / base_med:.1f}"
        print(f"rank={rank} algo={label} median={med:.6f} pct_of_baseline={pct}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flashopt", description="multi-objective optimizer benchmark harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run optimizers with the repeat protocol")
    run_p.add_argument("--problem", required=True,
                       help=f"file path, monrp:N-P-M-dep-funding, or synth:{'|'.join(sorted(SYNTHETICS))}")
    run_p.add_argument("--algo", required=True, help="comma-separated algorithm names")
    run_p.add_argument("--repeats", type=int, default=20)
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--pool", type=int, default=10_000)
    run_p.add_argument("--out", required=True, help="results CSV path")
    run_p.add_argument("--lives", type=int, default=10)
    run_p.add_argument("--init", type=int, default=20, help="initial sample size")
    run_p.add_argument("--pop", type=int, default=100)
    run_p.add_argument("--gens", type=int, default=50)
    run_p.add_argument("--budget", type=int, default=DEFAULT_RANDOM_BUDGET,
                       help="random-search budget when flash is not in --algo")
    run_p.add_argument("--timings", action="store_true",
                       help="write measured wall_ms (breaks byte-reproducibility)")
    run_p.set_defaults(handler=_cmd_run)

    tree_p = sub.add_parser("tree", help="render the domination tree of a stored run")
    tree_p.add_argument("--in", dest="in_path", required=True, help="results directory")
    tree_p.add_argument("--run-id", type=int, required=True)
    tree_p.add_argument("--algo", required=True)
    tree_p.set_defaults(handler=_cmd_tree)

    stats_p = sub.add_parser("stats", help="Scott-Knott ranking of a results file")
    stats_p.add_argument("--in", dest="in_path", required=True, help="results CSV")
    stats_p.add_argument("--measure", choices=("gd", "igd", "evals"), required=True)
    stats_p.add_argument("--baseline", required=True)
    stats_p.set_defaults(handler=_cmd_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
