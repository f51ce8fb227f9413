"""Shared domain types, the problem abstraction, and tabular problem loading.

A Problem is either TABULAR (a decision matrix x and an objective matrix y
of pre-measured rows) or GENERATIVE (a sampler of an (n, d) decision
matrix at a time, plus an evaluator and an optional repairer that each
take a (k, d) block of rows). A repeat's candidates are a Pool of
ids and decision rows, drawn by Problem.sample_pool for both kinds. Every
fitness measurement goes through :meth:`Problem.evaluate`, which takes a
block of rows and is the only operation that touches the evaluation
counter. A RunResult holds a run's evaluations as arrays; its per-row
EvaluatedPoint records are built only when read.
"""

from __future__ import annotations

import codecs
import math
import random
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np


class Sense(Enum):
    """Optimization direction of one objective."""

    MIN = "min"
    MAX = "max"


class ProblemKind(Enum):
    TABULAR = "tabular"
    GENERATIVE = "generative"


@dataclass(frozen=True)
class ObjectiveSchema:
    """Names and senses of the objective columns, in order."""

    names: tuple[str, ...]
    senses: tuple[Sense, ...]

    def __post_init__(self):
        if len(self.names) == 0:
            raise ValueError("schema needs at least one objective")
        if len(self.names) != len(self.senses):
            raise ValueError("names and senses must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("objective names must be unique")

    def __len__(self) -> int:
        return len(self.names)

    @property
    def weights(self) -> tuple[int, ...]:
        """Sense flags as -1 (minimize) / +1 (maximize)."""
        return tuple(-1 if s is Sense.MIN else 1 for s in self.senses)


@dataclass(frozen=True)
class ObjectiveVector:
    """Measured or predicted objective values aligned with a schema."""

    values: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class EvaluatedPoint:
    """One evaluation of a run: the pool id of the row, its decision row (a
    view of the run's decision matrix) and its measured objectives."""

    id: int
    decisions: np.ndarray
    objectives: ObjectiveVector


@dataclass
class IterationRecord:
    """One loop iteration of an optimizer that tracks progress."""

    chosen_id: int
    lives: int
    front_size: int


@dataclass(eq=False)
class RunResult:
    """What one optimizer run produced: row k of ids, x and y is its k-th
    evaluation, and front holds the ascending rows of its final front.

    evaluated (a record per row), best (the front's records, a subset of
    evaluated by identity) and evals are built on first read, kept, and
    may be assigned.
    """

    ids: np.ndarray
    x: np.ndarray
    y: np.ndarray
    front: np.ndarray
    trace: list[IterationRecord] = field(default_factory=list)

    @cached_property
    def evaluated(self) -> list[EvaluatedPoint]:
        return [
            EvaluatedPoint(i, d, ObjectiveVector(tuple(o)))
            for i, d, o in zip(self.ids.tolist(), self.x, self.y.tolist())
        ]

    @cached_property
    def best(self) -> list[EvaluatedPoint]:
        return [self.evaluated[k] for k in self.front.tolist()]

    @cached_property
    def evals(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class Pool:
    """A repeat's candidate rows: row k has decisions x[k] and the
    pool-unique id ids[k]."""

    ids: np.ndarray
    x: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def min_max_scale(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per-column (x - lo) / (hi - lo); a zero-span column maps to 0."""
    span = hi - lo
    nz = span > 0
    return np.where(nz, (x - lo) / np.where(nz, span, 1.0), 0.0)


def row_keys(x: np.ndarray) -> np.ndarray:
    """One void value per row of a 2-D array: the row's float bytes once
    + 0.0 has made every -0.0 a +0.0. Rows of non-NaN floats share a key
    exactly when they are equal, so np.unique and searchsorted on the keys
    group and find equal rows, in byte order rather than numeric order."""
    x = np.ascontiguousarray(x + 0.0)
    return x.view(np.dtype((np.void, x.itemsize * x.shape[1]))).ravel()


class LoadError(ValueError):
    """Raised when a tabular problem file is malformed."""


@dataclass(eq=False, kw_only=True)
class Problem:
    """An evaluable search space with an evaluation counter.

    TABULAR problems hold n pre-measured rows, decisions x (n, d) and
    objectives y (n, m); evaluating a row twice returns identical
    objectives while still counting both. GENERATIVE problems (x is None)
    sample fresh decision rows with sampler(rng, n), compute objectives
    with evaluator and fix rows with repairer, each on a block of rows; a
    sampler leaves rng where n one-row draws would. gene_values holds each
    gene's valid values for mutation, None on a table.
    """

    name: str
    decision_names: Sequence[str]
    schema: ObjectiveSchema
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    sampler: Callable[[random.Random, int], np.ndarray] | None = None
    evaluator: Callable[[np.ndarray], np.ndarray] | None = None
    repairer: Callable[[np.ndarray], np.ndarray] | None = None
    gene_values: Sequence[Sequence[float]] | None = None
    eval_count: int = field(default=0, init=False)

    @classmethod
    def tabular(
        cls,
        name: str,
        decision_names: Sequence[str],
        schema: ObjectiveSchema,
        x,
        y,
    ) -> "Problem":
        """A table of measured rows: decisions x (n, d), objectives y (n, m).
        Rows without a partner and non-finite values are rejected here, with
        the first bad row named."""
        x = np.array(x, dtype=float)
        y = np.array(y, dtype=float)
        d, m = len(decision_names), len(schema)
        if x.ndim != 2 or y.ndim != 2 or x.shape[1] != d or y.shape[1] != m:
            raise ValueError(f"{name}: need decisions (n, {d}) and objectives (n, {m})")
        if len(x) != len(y):
            missing = "objectives" if len(x) > len(y) else "decisions"
            raise ValueError(f"{name}: row {min(len(x), len(y))} has no {missing}")
        finite = np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1)
        if not finite.all():
            raise ValueError(f"{name}: non-finite value in row {int(np.argmin(finite))}")
        return cls(name=name, decision_names=tuple(decision_names), schema=schema, x=x, y=y)

    @property
    def kind(self) -> ProblemKind:
        return ProblemKind.GENERATIVE if self.x is None else ProblemKind.TABULAR

    @property
    def decision_arity(self) -> int:
        return len(self.decision_names)

    @property
    def pool_size(self) -> int:
        if self.x is None:
            raise ValueError(f"{self.name}: generative problems have no fixed pool")
        return len(self.x)

    def evaluate(self, ids, x) -> np.ndarray:
        """Measure the decision rows x, with pool ids ids; return their
        (k, m) objective block. Adds k to the evaluation counter."""
        ids = np.asarray(ids)
        x = np.asarray(x, dtype=float)
        if x.shape != (len(ids), self.decision_arity):
            raise ValueError(
                f"{self.name}: {x.shape} decision block for {len(ids)} ids "
                f"of arity {self.decision_arity}"
            )
        if self.kind is ProblemKind.TABULAR:
            if len(ids) and not 0 <= ids.min() <= ids.max() < len(self.x):
                raise ValueError(f"{self.name}: unknown point id in {ids.tolist()}")
            if not np.array_equal(self.x[ids], x):
                raise ValueError(f"{self.name}: rows do not match the table at their ids")
            y = self.y[ids]
        else:
            y = np.asarray(self.evaluator(x), dtype=float)
            if y.shape != (len(ids), len(self.schema)):
                raise ValueError(f"{self.name}: evaluator returned a {y.shape} block")
            finite = np.isfinite(y).all(axis=1)
            if not finite.all():
                raise ValueError(
                    f"{self.name}: non-finite objective for id {ids[np.argmin(finite)]}"
                )
        self.eval_count += len(ids)
        return y

    def sample_pool(self, n: int, rng: random.Random) -> Pool:
        """A pool of n rows drawn from rng: without replacement from a
        TABULAR table, ids its row numbers; fresh valid rows of a GENERATIVE
        problem, ids 0..n-1."""
        if n < 1:
            raise ValueError("sample size must be at least 1")
        if self.kind is ProblemKind.TABULAR:
            if n > len(self.x):
                raise ValueError(
                    f"{self.name}: sample of {n} exceeds pool size {len(self.x)}"
                )
            ids = np.array(rng.sample(range(len(self.x)), n))
            return Pool(ids, self.x[ids])
        return Pool(np.arange(n), self.sampler(rng, n))

    def fresh(self) -> "Problem":
        """A clone with a zeroed evaluation counter, sharing the data."""
        return replace(self)  # eval_count is not an init field, so it starts at 0


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file, without one leading byte-order mark.
    Undecodable bytes raise a LoadError that names the path and the line
    of the first bad byte."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise LoadError(
            f"{path}:{line}: not UTF-8 text (byte 0x{data[exc.start]:02x}: {exc.reason})"
        ) from None


def load_tabular(path: str | Path) -> Problem:
    """Load a comma-separated measurement table as a TABULAR problem.

    One header line; decision columns are unprefixed, objective columns are
    prefixed '-' (minimize) or '+' (maximize). All cells finite numbers. Row
    order defines point ids 0..n-1. Lines end at CR, LF or CR LF only, as
    in csv. The first fault in line order is reported with its path:line.

    A clean table, whose data lines hold only the characters in _CLEAN, is
    parsed in one numpy call; any other table, and any clean one that numpy
    cannot read as finite cells of the header's width, goes through the
    line loop, which alone words the path:line messages.
    """
    path = Path(path)
    lines = read_utf8(path).replace("\r\n", "\n").replace("\r", "\n").split("\n")
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        raise LoadError(f"{path}: empty file")

    header = [c.strip() for c in lines[0].split(",")]
    decision_idx: list[int] = []
    decision_names: list[str] = []
    objective_idx: list[int] = []
    obj_names: list[str] = []
    senses: list[Sense] = []
    for col, cell in enumerate(header):
        if cell == "":
            raise LoadError(f"{path}:1: empty header name in column {col + 1}")
        if cell[0] in "-+":
            name = cell[1:]
            if name == "":
                raise LoadError(f"{path}:1: bare objective prefix in column {col + 1}")
            objective_idx.append(col)
            obj_names.append(name)
            senses.append(Sense.MIN if cell[0] == "-" else Sense.MAX)
        else:
            decision_idx.append(col)
            decision_names.append(cell)
    if not objective_idx:
        raise LoadError(f"{path}:1: no objective columns")
    if not decision_idx:
        raise LoadError(f"{path}:1: no decision columns")
    if len(set(obj_names)) != len(obj_names):
        raise LoadError(f"{path}:1: duplicate objective names")
    if len(set(decision_names)) != len(decision_names):
        raise LoadError(f"{path}:1: duplicate decision names")
    schema = ObjectiveSchema(tuple(obj_names), tuple(senses))

    width = len(header)
    table = _clean_table(lines[1:], width)
    fault: LoadError | None = None
    if table is None:
        rows: list[list[float]] = []
        for lineno, line in enumerate(lines[1:], start=2):
            cells = line.split(",")
            if len(cells) != width:
                fault = LoadError(f"{path}:{lineno}: expected {width} cells, got {len(cells)}")
                break
            try:
                row = [float(c.strip()) for c in cells]
            except ValueError:
                row = [math.nan]  # _bad_cell names the cell
            if not all(map(math.isfinite, row)):
                fault = _bad_cell(path, lineno, cells)
                break
            rows.append(row)
        table = np.array(rows).reshape(len(rows), width)
    # A duplicate before the first bad line is the first fault. With
    # return_index np.unique sorts stably, so first holds the earliest row
    # of each group of equal decisions.
    x, y = table[:, decision_idx], table[:, objective_idx]
    _, first, group = np.unique(row_keys(x), return_index=True, return_inverse=True)
    owner = first[group]
    conflicts = np.flatnonzero((y != y[owner]).any(axis=1))
    if len(conflicts):
        k = conflicts[0]
        raise LoadError(
            f"{path}:{k + 2}: row duplicates line {owner[k] + 2} with conflicting objectives"
        )
    if fault is not None:
        raise fault
    if not len(table):
        raise LoadError(f"{path}: no data rows")
    return Problem.tabular(path.stem, decision_names, schema, x, y)


# What a clean data line may hold: characters that float() and numpy's
# parser read alike. Underscores, non-ASCII digits, tabs, the \x1c-\x1f
# controls that str.strip() removes and the letters of inf and nan are out.
_CLEAN = b"0123456789+-.eE, "


def _clean_table(lines: list[str], width: int) -> np.ndarray | None:
    """The data lines as one (len(lines), width) array, parsed in one numpy
    call, or None unless every line is clean and every cell finite."""
    if not lines or "\n".join(lines).encode("utf-8").translate(None, _CLEAN + b"\n"):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    # loadtxt skips blank lines, which the loop reports as short.
    if table.shape != (len(lines), width) or not np.isfinite(table).all():
        return None
    return table


def _bad_cell(path: Path, lineno: int, cells: list[str]) -> LoadError:
    """The error for the first non-numeric or non-finite cell of a line."""
    for col, cell in enumerate(c.strip() for c in cells):
        try:
            if math.isfinite(float(cell)):
                continue
        except ValueError:
            pass
        return LoadError(
            f"{path}:{lineno}: non-numeric or non-finite cell '{cell}' in column {col + 1}"
        )
    raise AssertionError(f"{path}:{lineno}: no bad cell")
