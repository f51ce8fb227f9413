"""Protocol benchmark for flashopt.

Runs one workload in-process, for a fixed wall-clock budget, and prints
every metric by name with its unit. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/bench.py --workload monrp-protocol --seed 1 --seconds 55 --trace 0

Workloads (see README.md next to this file for why each was chosen):

* monrp-protocol   one seeded repeat of flash, nsga2 and random on a 10,000
                   plan MONRP pool, plus `flashopt tree` on the 5,100-row
                   run dump of its NSGA-II run
* tabular-protocol one seeded repeat of flash, sway, nsga2 and random on the
                   synth:step table, plus `flashopt tree` on its flash run

With --trace 0 the end-to-end metrics are reported. With --trace 1 the
first half of the budget runs untraced, then the same operations are
replayed with every public flashopt function wrapped in a span, and the
per-layer self times and counts are reported instead. Spans are kept in
memory and written to .perfbench/spans-<workload>.csv at the end.

The program is imported from src/ of the checkout this file lives in; the
benchmark exits with status 2, printing no result, when it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
IMPORT_SAMPLES = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark input family.

    An operation is one single-repeat run_experiment of the algorithms on a
    fresh instance, then `flashopt tree` on the run dump of tree_algo.
    Set-up builds setup_steps instances.
    """

    problem: str
    pool: int
    algorithms: tuple[str, ...]
    tree_algo: str
    pop: int = 100
    generations: int = 50
    setup_steps: int = 5
    min_ops: int = 5  # flash quality is taken over exactly this many ops


WORKLOADS = {
    "monrp-protocol": Workload(
        "monrp:50-4-5-4-90", 10_000, ("flash", "nsga2", "random"),
        "nsga2", min_ops=5,
    ),
    "tabular-protocol": Workload(
        "synth:step", 4_000, ("flash", "sway", "nsga2", "random"),
        "flash", min_ops=10,
    ),
}

# name -> (unit, better); the end-to-end set is printed with --trace 0.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "repeats_per_s": ("1/s", "higher"),
    "experiment_s_p50": ("s", "lower"),
    "tree_s_p50": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Traced layers: every wrapped function maps to one of these. Self time of
# each is reported as <layer>.self_s, per operation.
LAYERS = (
    "monrp.sample", "monrp.repair", "monrp.evaluate",
    "dominance.nondominated", "dominance.sort", "dominance.wins",
    "cart.fit", "cart.predict",
    "nsga2.run", "nsga2.crowding",
    "flash.run",
    "core.evaluate", "core.sample", "core.load_tabular",
    "sway.run", "sway.poles",
    "metrics", "domtree.build", "domtree.render", "cli", "synth.build",
    "bench",
)

# Counts per operation, computed from each wrapped call's inputs and outputs.
COUNTS = {
    "monrp.sample.plans": "count",
    "monrp.repair.calls": "count",
    "dominance.nondominated.rows": "count",
    "dominance.sort.rows": "count",
    "dominance.wins.vectors": "count",
    "dominance.wins.bytes_computed": "B",
    "cart.fit.calls": "count",
    "cart.fit.rows": "count",
    "cart.predict.rows": "count",
    "nsga2.generations": "count",
    "flash.iterations": "count",
    "core.evaluate.calls": "count",
    "core.load_tabular.rows": "count",
    "sway.evals": "count",
    "metrics.ref_front.points": "count",
}

# Derived per-layer figures that are not plain per-operation sums.
DERIVED = {
    "cart.nodes": ("count", "lower"),
    "flash.front_growth_ratio": ("ratio", "higher"),
    "flash.igd_p50": ("igd", "lower"),
    "flash.evals_p50": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.accounted_ratio": ("ratio", "higher"),
}


def per_layer_spec() -> dict[str, tuple[str, str]]:
    spec = {f"{layer}.self_s": ("s", "lower") for layer in LAYERS}
    spec.update({name: (unit, "lower") for name, unit in COUNTS.items()})
    spec.update(DERIVED)
    return spec


# --------------------------------------------------------------------------
# Tracing


class Tracer:
    """In-memory spans: [layer, start, end, parent index] per wrapped call.

    A span's self time is its duration minus the durations of its direct
    children; children always nest inside their parent because spans open
    and close on one call stack.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.tree_nodes: list[int] = []
        self.flash_kept = 0
        self._stack: list[int] = []

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, fn, layer, count=None):
        """fn, recording one span per call; layer is a name or a function of
        the call's arguments, count(tracer, args, result) adds its counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            name = layer(args) if callable(layer) else layer
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,layer,start,end,parent\n")
            for k, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{k},{name},{start:.9f},{end:.9f},{parent}\n")


def _flash_counts(tr: Tracer, args, result) -> None:
    lives = args[2].lives
    for rec in result.trace:
        tr.flash_kept += rec.lives == lives
        lives = rec.lives
    tr.add("flash.iterations", len(result.trace))


def _wins_counts(tr: Tracer, args, result) -> None:
    d = len(args[0])
    tr.add("dominance.wins.vectors", d)
    tr.add("dominance.wins.bytes_computed", d * d * len(args[1]) * 8)


def _fit_counts(tr: Tracer, args, result) -> None:
    tr.add("cart.fit.calls", 1)
    tr.add("cart.fit.rows", args[0].shape[0])


def _tree_counts(tr: Tracer, args, result) -> None:
    tr.tree_nodes.append(result[0])


def _targets():
    """(owner, attribute, layer, count) for every traced public function."""
    from flashopt import cart, cli, core, dominance, domtree, flash, metrics
    from flashopt import monrp, nsga2, sway, synth

    def sample_layer(args):
        return "monrp.sample" if args[0].kind is core.ProblemKind.GENERATIVE else "core.sample"

    def sample_counts(tr, args, result):
        if args[0].kind is core.ProblemKind.GENERATIVE:
            tr.add("monrp.sample.plans", len(result))

    def add(name, value):
        return lambda tr, args, result: tr.add(name, value(args, result))

    return [
        (core.Problem, "evaluate", "core.evaluate",
         add("core.evaluate.calls", lambda a, r: 1)),
        (core.Problem, "sample_pool", sample_layer, sample_counts),
        (core, "load_tabular", "core.load_tabular",
         add("core.load_tabular.rows", lambda a, r: r.pool_size)),
        (monrp, "repair_plan", "monrp.repair", add("monrp.repair.calls", lambda a, r: 1)),
        (monrp, "evaluate_plan", "monrp.evaluate", None),
        (dominance, "nondominated_mask", "dominance.nondominated",
         add("dominance.nondominated.rows", lambda a, r: a[0].shape[0])),
        (dominance, "front0", "dominance.nondominated", None),
        (dominance, "nondominated_sort", "dominance.sort",
         add("dominance.sort.rows", lambda a, r: len(a[0]))),
        (dominance, "domination_scores", "dominance.wins", None),
        (dominance, "_class_wins", "dominance.wins", _wins_counts),
        (cart, "fit_arrays", "cart.fit", _fit_counts),
        (cart, "predict_many", "cart.predict",
         add("cart.predict.rows", lambda a, r: a[1].shape[0])),
        (nsga2, "run_nsga2", "nsga2.run",
         add("nsga2.generations", lambda a, r: a[1].generations)),
        (nsga2, "crowding_distance", "nsga2.crowding", None),
        (flash, "run_flash", "flash.run", _flash_counts),
        (sway, "run_sway", "sway.run", add("sway.evals", lambda a, r: r.evals)),
        (sway, "two_distant_points", "sway.poles", None),
        (sway, "project", "sway.poles", None),
        (metrics, "reference_front", "metrics",
         add("metrics.ref_front.points", lambda a, r: len(r.points))),
        (metrics, "gd", "metrics", None),
        (metrics, "igd", "metrics", None),
        (domtree, "build_domination_tree", "domtree.build", None),
        (domtree, "render", "domtree.render", None),
        (domtree, "tree_stats", "domtree.render", _tree_counts),
        (synth, "make_synthetic", "synth.build", None),
        (cli, "run_experiment", "cli", None),
        (cli, "run_random", "cli", None),
        (cli, "main", "cli", None),
    ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every target, in its own module and under every name another
    flashopt module imported it by; restore all of them on exit."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "flashopt" or name.startswith("flashopt."))]
    patched = []
    try:
        for owner, attr, layer, count in _targets():
            original = owner.__dict__[attr]
            wrapper = tracer.wrap(original, layer, count)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if m.__dict__.get(attr) is original
            ]
            for holder in holders:
                patched.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        yield tracer
    finally:
        for holder, attr, original in reversed(patched):
            setattr(holder, attr, original)


# --------------------------------------------------------------------------
# Operations and their correctness checks


@dataclasses.dataclass
class OpResult:
    seed: int
    wall_s: float = 0.0
    experiment_s: float | None = None
    tree_s: float | None = None
    flash_igd: float | None = None
    flash_evals: int | None = None
    digests: dict[str, str] = dataclasses.field(default_factory=dict)
    problems: list[str] = dataclasses.field(default_factory=list)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _runs_digest(run_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(run_dir.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def call_tree(cli, in_dir: Path, algo: str) -> tuple[int, str, float]:
    buf = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["tree", "--in", str(in_dir), "--run-id", "0", "--algo", algo])
    return code, buf.getvalue(), time.perf_counter() - started


def check_tree(code: int, text: str) -> list[str]:
    if code != 0:
        return [f"tree exited with {code}"]
    last = text.strip().splitlines()[-1] if text.strip() else ""
    try:
        fields = dict(kv.split("=") for kv in last.split())
        nodes, leaves = int(fields["nodes"]), int(fields["leaves"])
    except (KeyError, ValueError):
        return [f"tree printed no nodes/leaves line: {last!r}"]
    if nodes != 2 * leaves - 1:
        return [f"tree has nodes={nodes} leaves={leaves}, not nodes = 2*leaves - 1"]
    return []


def _mutually_nondominated(best, schema) -> bool:
    signs = np.array([-w for w in schema.weights], dtype=float)
    y = np.array([ev.objectives.values for ev in best], dtype=float) * signs
    le = (y[:, None, :] <= y[None, :, :]).all(axis=2)
    lt = (y[:, None, :] < y[None, :, :]).any(axis=2)
    return not (le & lt).any()


def check_experiment(result, wl: Workload, schema) -> list[str]:
    """Protocol invariants of one single-repeat run_experiment result."""
    problems = []
    if len(result.rows) != len(wl.algorithms):
        problems.append(f"{len(result.rows)} result rows, expected {len(wl.algorithms)}")
    if len(result.run_dumps) != len(wl.algorithms):
        problems.append(f"{len(result.run_dumps)} run dumps, expected {len(wl.algorithms)}")
    for row in result.rows:
        for name in ("gd", "igd"):
            v = getattr(row, name)
            if not (math.isfinite(v) and v >= 0):
                problems.append(f"run {row.run} {row.algo}: {name}={v}")
        if row.algo == "nsga2" and row.evals != wl.pop * (wl.generations + 1):
            problems.append(
                f"run {row.run} nsga2: {row.evals} evals, expected {wl.pop * (wl.generations + 1)}"
            )
    evals = {row.algo: row.evals for row in result.rows}
    if "flash" in evals and "random" in evals and evals["random"] != evals["flash"]:
        problems.append(
            f"random budget {evals['random']} != flash evals {evals['flash']}"
        )
    for (r, algo), res in result.results.items():
        seen = {id(ev) for ev in res.evaluated}
        if not res.best or any(id(ev) not in seen for ev in res.best):
            problems.append(f"run {r} {algo}: best is not a subset of evaluated")
        elif not _mutually_nondominated(res.best, schema):
            problems.append(f"run {r} {algo}: best holds a dominated point")
        if res.evals != len(res.evaluated):
            problems.append(f"run {r} {algo}: evals {res.evals} != {len(res.evaluated)} evaluated")
    return problems


def _one_repeat(cli, wl: Workload, seed: int, out_dir: Path):
    return cli.run_experiment(cli.ExperimentSpec(
        problem=wl.problem, algorithms=list(wl.algorithms), repeats=1, seed=seed,
        pool=wl.pool, out=out_dir / "results.csv", pop=wl.pop, generations=wl.generations,
    ))


def protocol_op(cli, wl: Workload, schema, seed: int, work: Path) -> OpResult:
    op = OpResult(seed)
    out_dir = work / f"op-{seed}"
    started = time.perf_counter()
    try:
        result = _one_repeat(cli, wl, seed, out_dir)
        op.experiment_s = time.perf_counter() - started
        code, text, op.tree_s = call_tree(cli, out_dir, wl.tree_algo)
        op.wall_s = time.perf_counter() - started
    except Exception as exc:  # an operation that raises is a failed operation
        op.wall_s = time.perf_counter() - started
        op.problems.append(f"raised {type(exc).__name__}: {exc}")
        shutil.rmtree(out_dir, ignore_errors=True)
        return op
    op.problems += check_experiment(result, wl, schema)
    op.problems += check_tree(code, text)
    flash_rows = [row for row in result.rows if row.algo == "flash"]
    if flash_rows:
        op.flash_igd, op.flash_evals = flash_rows[0].igd, flash_rows[0].evals
    op.digests = {
        "results.csv": _sha((out_dir / "results.csv").read_bytes()),
        "runs": _runs_digest(out_dir / "runs"),
        "tree": _sha(text.encode()),
    }
    shutil.rmtree(out_dir, ignore_errors=True)
    return op


# --------------------------------------------------------------------------
# Running a workload


def op_seed(seed: int, i: int) -> int:
    return seed * 10_000 + i


@dataclasses.dataclass
class RunReport:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    samples: dict[str, int]
    ops: list[OpResult]


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 work: Path, import_s: float = 0.0,
                 spans_path: Path | None = None) -> RunReport:
    from flashopt import cli

    work.mkdir(parents=True, exist_ok=True)
    setup_walls: list[float] = []
    schema = None
    for k in range(wl.setup_steps):
        started = time.perf_counter()
        schema = cli.build_problem(wl.problem, wl.pool, op_seed(seed, k)).schema
        setup_walls.append(time.perf_counter() - started)

    def run_op(i: int) -> OpResult:
        return protocol_op(cli, wl, schema, op_seed(seed, i), work)

    budget = seconds / 2 if trace else seconds
    ops: list[OpResult] = []
    started = time.perf_counter()
    while len(ops) < wl.min_ops or time.perf_counter() - started < budget:
        ops.append(run_op(len(ops)))

    samples: dict[str, int] = {}
    metrics: dict[str, tuple[float, str]] = {}
    attempted = len(ops)
    failed = sum(1 for op in ops if op.problems)

    if not trace:
        good = [op for op in ops if not op.problems]
        experiment_walls = [op.experiment_s for op in good]
        tree_walls = [op.tree_s for op in good]
        metrics["setup_s"] = (import_s + statistics.median(setup_walls), "s")
        metrics["repeats_per_s"] = (len(good) / sum(op.wall_s for op in ops), "1/s")
        metrics["experiment_s_p50"] = (_median(experiment_walls), "s")
        metrics["tree_s_p50"] = (_median(tree_walls), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        samples.update(setup_s=len(setup_walls), repeats_per_s=len(ops),
                       experiment_s_p50=len(experiment_walls), tree_s_p50=len(tree_walls))
    else:
        tracer = Tracer()
        replay: list[OpResult] = []
        phase_start = time.perf_counter()
        traced_op = tracer.wrap(run_op, "bench")
        with traced(tracer):
            for i in range(len(ops)):
                replay.append(traced_op(i))
        phase_wall = time.perf_counter() - phase_start
        for first, again in zip(ops, replay):
            if again.problems or again.digests != first.digests:
                first.problems.append("traced replay differs: " + "; ".join(again.problems))
        failed = sum(1 for op in ops if op.problems)
        if spans_path is not None:
            tracer.write(spans_path)
        metrics.update(layer_metrics(tracer, ops, replay, phase_wall, wl))

    return RunReport(failed == 0, attempted, failed, metrics, samples, ops)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, ops, replay, phase_wall: float,
                  wl: Workload) -> dict[str, tuple[float, str]]:
    n = len(replay)
    selfs = tracer.self_times()
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (selfs.get(layer, 0.0) / n, "s")
    for name, unit in COUNTS.items():
        out[name] = (tracer.counts.get(name, 0) / n, unit)
    out["cart.nodes"] = (_median(tracer.tree_nodes), "count")
    iterations = tracer.counts.get("flash.iterations", 0)
    out["flash.front_growth_ratio"] = (
        tracer.flash_kept / iterations if iterations else 0.0, "ratio")
    quality = ops[: wl.min_ops]
    out["flash.igd_p50"] = (_median([op.flash_igd for op in quality if op.flash_igd is not None]), "igd")
    out["flash.evals_p50"] = (_median([op.flash_evals for op in quality if op.flash_evals is not None]), "count")
    out["trace.overhead_ratio"] = (
        sum(op.wall_s for op in replay) / sum(op.wall_s for op in ops), "ratio")
    out["trace.accounted_ratio"] = (sum(selfs.values()) / phase_wall, "ratio")
    return out


# --------------------------------------------------------------------------
# Entry point


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def context(args, load1: float) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_sha": git_sha(ROOT), "loadavg_1m": load1,
    }


def import_walls(k: int) -> list[float]:
    """Wall time of k fresh interpreters each importing numpy and the CLI:
    the part of set-up that one process can only pay once."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import numpy, flashopt.cli"
    walls = []
    for _ in range(k):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        walls.append(time.perf_counter() - started)
    return walls


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    load1 = os.getloadavg()[0]
    args = parse_args(argv)
    if not (SRC / "flashopt" / "__init__.py").is_file():
        print(f"error: no flashopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flashopt.cli

    if Path(flashopt.cli.__file__).resolve().parent != SRC / "flashopt":
        print(f"error: flashopt imported from {flashopt.cli.__file__}", file=sys.stderr)
        return 2
    import_s = statistics.median(import_walls(IMPORT_SAMPLES))

    work = WORK / f"work-{os.getpid()}"
    try:
        report = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work,
            import_s=import_s, spans_path=WORK / f"spans-{args.workload}.csv",
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("context " + json.dumps(context(args, load1), sort_keys=True))
    for op in report.ops:
        line = f"op seed={op.seed} wall_s={op.wall_s:.4f} " + " ".join(
            f"{k}={v}" for k, v in op.digests.items())
        print(line)
        for problem in op.problems:
            print(f"FAILED seed={op.seed}: {problem}")
    for name, (value, unit) in report.metrics.items():
        n = report.samples.get(name)
        print(f"metric {name} = {value:.6g} {unit}" + (f"  (n={n})" if n else ""))
    print(f"ops attempted={report.attempted} failed={report.failed} "
          f"ops_failed_ratio={report.failed / report.attempted:.4g}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
