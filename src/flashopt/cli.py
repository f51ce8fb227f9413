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
import io
import math
import random
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from statistics import median

import numpy as np

from .core import (
    Pool,
    Problem,
    ProblemKind,
    RunResult,
    Sense,
    load_tabular,
    read_utf8,
)
from .dominance import front0
from .flash import FlashConfig, run_flash
from .metrics import ReferenceFront, gd, igd, reference_front
from .monrp import as_problem, generate
from .nsga2 import Nsga2Config, run_nsga2
from .domtree import build_domination_tree, render, tree_stats
from .stats import scott_knott
from .sway import run_sway
from .synth import SYNTHETICS, make_synthetic

ALGORITHMS = ("flash", "sway", "nsga2", "random")


@dataclass
class ExperimentSpec:
    problem: str
    algorithms: list[str]
    repeats: int = 20
    seed: int = 1
    pool: int = 10_000
    out: Path | None = None
    lives: int = FlashConfig.lives
    size0: int = FlashConfig.size0
    pop: int = Nsga2Config.pop_size
    generations: int = Nsga2Config.generations
    budget: int = 100  # random-search fallback when flash is absent
    timings: bool = False

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if self.seed < 0:  # random.Random(-s) repeats random.Random(s)
            raise ValueError("seed must be at least 0")
        if not self.algorithms:
            raise ValueError(f"no algorithm given; choose from {list(ALGORITHMS)}")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(
                f"unknown algorithm(s) {unknown}; choose from {list(ALGORITHMS)}"
            )
        repeated = sorted({a for a in self.algorithms if self.algorithms.count(a) > 1})
        if repeated:
            raise ValueError(f"algorithm(s) {repeated} listed more than once")
        # Check every algorithm's settings before the first run starts.
        if "flash" in self.algorithms:
            FlashConfig(self.size0, self.lives)
        if "nsga2" in self.algorithms:
            Nsga2Config(self.pop, self.generations)
        if "random" in self.algorithms and "flash" not in self.algorithms and self.budget < 1:
            raise ValueError("budget must be at least 1")


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
    rows_text: str = ""
    run_dumps: dict[tuple[int, str], str] = field(default_factory=dict)


def run_random(problem: Problem, budget: int, seed: int) -> RunResult:
    """Budget-matched control: evaluate `budget` uniform pool samples."""
    pool = problem.sample_pool(budget, random.Random(seed))
    y = problem.evaluate(pool.ids, pool.x)
    return RunResult(pool.ids, pool.x, y, front0(y, problem.schema))


def build_problem(source: str, pool_n: int, base_seed: int) -> Problem:
    """Instantiate the problem a spec string names.

    MONRP instances are generated once from the base seed, so every repeat
    of an experiment optimizes the same scenario.
    """
    if source.startswith("monrp:"):
        try:  # a non-integer field and a wrong field count both raise here
            n, p, m, dep, funding = map(int, source[len("monrp:") :].split("-"))
        except ValueError:
            raise ValueError(f"expected monrp:N-P-M-dep-funding, got {source!r}") from None
        inst = generate(n, p, m, dep, funding, seed=base_seed)
        return as_problem(inst, name=f"monrp-{n}-{p}-{m}-{dep}-{funding}")
    if source.startswith("synth:"):
        return make_synthetic(source[len("synth:") :], pool_n)
    return load_tabular(source)


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    base = build_problem(spec.problem, spec.pool, spec.seed)
    tabular = base.kind is ProblemKind.TABULAR
    # The bounds that depend on the pool, checked before the first run.
    pool_n = min(spec.pool, base.pool_size) if tabular else spec.pool
    if "flash" in spec.algorithms and spec.size0 > pool_n:
        raise ValueError(f"size0={spec.size0} exceeds pool of {pool_n}")
    if "nsga2" in spec.algorithms and tabular and spec.pop > base.pool_size:
        raise ValueError(f"pop_size {spec.pop} exceeds pool of {base.pool_size}")
    if "sway" in spec.algorithms and pool_n < 2:
        raise ValueError("pool must hold at least 2 points")
    if tabular and "random" in spec.algorithms and "flash" not in spec.algorithms:
        if spec.budget > base.pool_size:  # random samples the whole table
            raise ValueError(f"budget {spec.budget} exceeds pool of {base.pool_size}")
    results: dict[tuple[int, str], RunResult] = {}
    walls: dict[tuple[int, str], float] = {}

    for r in range(spec.repeats):
        seed_r = spec.seed + r
        pool = None
        if any(a in ("flash", "sway") for a in spec.algorithms):  # random draws its own
            if tabular and spec.pool >= base.pool_size:
                pool = Pool(np.arange(base.pool_size), base.x)
            else:
                pool = base.sample_pool(spec.pool, random.Random(seed_r))
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
                result = run_sway(problem, pool, seed_r)
            elif algo == "nsga2":
                result = run_nsga2(
                    problem, Nsga2Config(spec.pop, spec.generations, seed=seed_r)
                )
            else:  # random; spec validation rejects unknown names
                budget = flash_evals if flash_evals is not None else spec.budget
                result = run_random(problem, budget, seed_r)
            walls[(r, algo)] = (time.perf_counter() - started) * 1000.0
            if result.evals != problem.eval_count:
                raise ValueError(
                    f"run {r} {algo}: reports {result.evals} evaluations, "
                    f"the problem counted {problem.eval_count}"
                )
            results[(r, algo)] = result

    all_best = np.concatenate([res.y[res.front] for res in results.values()])
    ref = reference_front(all_best, base.schema)

    rows = []
    for (r, algo), res in sorted(results.items()):
        solutions = res.y[res.front]
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

    out = ExperimentResult(rows=rows, results=results, ref=ref)
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
    tabular format the loader reads (so `tree` can rebuild the run).

    Each distinct cell, told apart by its float64 bits so that -0.0 keeps
    its own repr, is formatted once, as the repr of a Python float. Rows
    are joined 1,024 at a time, so no list holds every cell of a run."""
    header = list(problem.decision_names) + [
        ("-" if s is Sense.MIN else "+") + name
        for name, s in zip(problem.schema.names, problem.schema.senses)
    ]
    lines = [",".join(header)]
    cells = np.hstack([result.x, result.y])
    bits, index = np.unique(cells.view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    index = index.reshape(cells.shape)
    for a in range(0, len(index), 1024):
        lines += map(",".join, text[index[a:a + 1024]].tolist())
    return "\n".join(lines) + "\n"


def _cmd_run(args) -> int:
    # The run parser suppresses its defaults: an option left out keeps the spec's.
    spec = ExperimentSpec(**{f.name: getattr(args, f.name)
                             for f in fields(ExperimentSpec) if hasattr(args, f.name)})
    result = run_experiment(spec)
    print(f"wrote {len(result.rows)} rows to {spec.out}")
    return 0


def _cmd_tree(args) -> int:
    dump = Path(args.in_path) / "runs" / f"run{args.run_id}_{args.algo}.csv"
    if not dump.exists():
        raise FileNotFoundError(f"no stored run at {dump}")
    problem = load_tabular(dump)
    try:
        dt = build_domination_tree(problem.x, problem.y, problem.schema, problem.decision_names)
    except ValueError as exc:  # name the dump, as the loader's errors do
        raise ValueError(f"{dump}: {exc}") from None
    print(render(dt))
    nodes, leaves = tree_stats(dt)
    print(f"nodes={nodes} leaves={leaves}")
    return 0


def _read_measure(path: str, measure: str) -> dict[str, list[float]]:
    """Samples of one measure per algorithm from a results file. Bytes that
    are not UTF-8, a missing column, a row of the wrong width, or a
    non-numeric or non-finite cell are rejected with their path:line."""
    rows = csv.reader(io.StringIO(read_utf8(path), newline=""))
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

    run_p = sub.add_parser("run", help="run optimizers with the repeat protocol",
                           argument_default=argparse.SUPPRESS)
    run_p.add_argument("--problem", required=True,
                       help=f"file path, monrp:N-P-M-dep-funding, or synth:{'|'.join(sorted(SYNTHETICS))}")
    run_p.add_argument("--algo", required=True, dest="algorithms", metavar="ALGO",
                       type=lambda s: [a.strip() for a in s.split(",") if a.strip()],
                       help="comma-separated algorithm names")
    run_p.add_argument("--repeats", type=int)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--pool", type=int)
    run_p.add_argument("--out", required=True, type=Path, help="results CSV path")
    run_p.add_argument("--lives", type=int)
    run_p.add_argument("--init", type=int, dest="size0", metavar="INIT",
                       help="initial sample size")
    run_p.add_argument("--pop", type=int)
    run_p.add_argument("--gens", type=int, dest="generations", metavar="GENS")
    run_p.add_argument("--budget", type=int,
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
