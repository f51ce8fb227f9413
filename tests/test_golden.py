"""Golden lock: a fixed CLI spec must keep producing byte-identical output.

Each case runs all four algorithms through `flashopt run` on a tiny spec,
then `flashopt tree` on the run-0 flash and nsga2 dumps and `flashopt stats`
on the results file (igd and evals against random), and compares every
byte with the files frozen under tests/golden/<case>/. A refactor must keep
this test green without touching those files. A deliberate change of
behaviour re-freezes them with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import tempfile
from pathlib import Path

import pytest

from flashopt.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
TREE_ALGOS = ("flash", "nsga2")
STATS_MEASURES = ("igd", "evals")
COMMON = [
    "--algo", "flash,sway,nsga2,random", "--repeats", "2", "--seed", "1",
    "--init", "8", "--lives", "3", "--pop", "8", "--gens", "3",
]
CASES = {
    "step": ["--problem", "synth:step", "--pool", "120"],
    "step_small": ["--problem", "synth:step", "--pool", "24"],
    "monrp": ["--problem", "monrp:12-3-2-20-50", "--pool", "120"],
    "tabular": ["--problem", str(GOLDEN / "table.csv"), "--pool", "60"],
}


def printed(argv: list[str]) -> bytes:
    """stdout of one successful CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue().encode("utf-8")


def produce(case: str, out_dir: Path) -> dict[str, bytes]:
    """Run one case into out_dir; return relative path -> produced bytes."""
    out = out_dir / "results.csv"
    printed(["run", *CASES[case], *COMMON, "--out", str(out)])
    files = {"results.csv": out.read_bytes()}
    for path in sorted((out_dir / "runs").glob("*.csv")):
        files[f"runs/{path.name}"] = path.read_bytes()
    for algo in TREE_ALGOS:
        files[f"tree_{algo}.txt"] = printed(
            ["tree", "--in", str(out_dir), "--run-id", "0", "--algo", algo]
        )
    for measure in STATS_MEASURES:
        files[f"stats_{measure}.txt"] = printed(
            ["stats", "--in", str(out), "--measure", measure, "--baseline", "random"]
        )
    return files


def frozen(case: str) -> dict[str, bytes]:
    root = GOLDEN / case
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, tmp_path):
    got = produce(case, tmp_path)
    want = frozen(case)
    assert sorted(got) == sorted(want)
    for name in sorted(want):
        assert got[name] == want[name], f"{case}/{name} differs from the golden copy"


@pytest.mark.parametrize("case", sorted(CASES))
def test_stats_do_not_depend_on_the_sum_builtin(case, monkeypatch):
    # Python 3.12 made sum() over floats compensated. With the exact
    # math.fsum standing in for sum() in every flashopt module, the ranking
    # must still print the frozen bytes on any Python version.
    for name, module in list(sys.modules.items()):
        if name == "flashopt" or name.startswith("flashopt."):
            monkeypatch.setattr(module, "sum", math.fsum, raising=False)
    for measure in STATS_MEASURES:
        got = printed(["stats", "--in", str(GOLDEN / case / "results.csv"),
                       "--measure", measure, "--baseline", "random"])
        assert got == (GOLDEN / case / f"stats_{measure}.txt").read_bytes()


def freeze() -> None:
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            files = produce(case, Path(tmp))
        for name, data in files.items():
            path = GOLDEN / case / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        print(f"froze {len(files)} files for {case}", file=sys.stderr)


if __name__ == "__main__":
    freeze()
