"""Shared domain types, the problem abstraction, and tabular problem loading.

A Problem is either TABULAR (a finite pool of pre-measured rows) or
GENERATIVE (a sampler of n decision vectors at a time plus an evaluator).
Every fitness measurement goes through :meth:`Problem.evaluate`, which is
the only operation that touches the evaluation counter.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
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
class DecisionPoint:
    """A decision vector with a pool-unique id."""

    id: int
    decisions: tuple[float, ...]

    def __post_init__(self):
        if self.id < 0:
            raise ValueError("point id must be non-negative")


@dataclass(frozen=True)
class ObjectiveVector:
    """Measured or predicted objective values aligned with a schema."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError(f"objective values must be finite, got {self.values}")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


@dataclass(frozen=True)
class EvaluatedPoint:
    """A decision point paired with its measured objectives.

    eval_index is the 0-based order in which the owning problem instance
    performed the evaluation; it is unique within a run.
    """

    point: DecisionPoint
    objectives: ObjectiveVector
    eval_index: int


@dataclass
class IterationRecord:
    """One loop iteration of an optimizer that tracks progress."""

    chosen_id: int
    lives: int
    front_size: int


@dataclass
class RunResult:
    """What one optimizer run produced.

    evaluated is in evaluation order; best is the final non-dominated set
    and is always a subset of evaluated.
    """

    evaluated: list[EvaluatedPoint]
    best: list[EvaluatedPoint]
    evals: int
    trace: list[IterationRecord] = field(default_factory=list)


def min_max_scale(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per-column (x - lo) / (hi - lo); a zero-span column maps to 0."""
    span = hi - lo
    nz = span > 0
    return np.where(nz, (x - lo) / np.where(nz, span, 1.0), 0.0)


class LoadError(ValueError):
    """Raised when a tabular problem file is malformed."""


class Problem:
    """An evaluable search space with an evaluation counter.

    TABULAR problems hold an enumerated pool of rows with pre-measured
    objectives; evaluating a row twice returns identical objectives while
    still counting both calls. GENERATIVE problems sample fresh decision
    vectors and compute objectives on demand.
    """

    def __init__(
        self,
        *,
        name: str,
        decision_names: Sequence[str],
        schema: ObjectiveSchema,
        kind: ProblemKind,
        pool: Sequence[DecisionPoint] | None = None,
        measured: Sequence[tuple[float, ...]] | None = None,
        sampler: Callable[[random.Random, int], list[tuple[float, ...]]] | None = None,
        evaluator: Callable[[tuple[float, ...]], tuple[float, ...]] | None = None,
        repairer: Callable[[tuple[float, ...]], tuple[float, ...]] | None = None,
        gene_values: Sequence[Sequence[float]] | None = None,
    ):
        self.name = name
        self.decision_names = tuple(decision_names)
        self.schema = schema
        self.kind = kind
        self.eval_count = 0
        self._pool = list(pool) if pool is not None else None
        self._measured = list(measured) if measured is not None else None
        self._sampler = sampler
        self._evaluator = evaluator
        self._repairer = repairer
        self._gene_values = (
            tuple(tuple(vs) for vs in gene_values) if gene_values is not None else None
        )
        self._decision_matrix: np.ndarray | None = None
        if kind is ProblemKind.TABULAR:
            if self._pool is None or self._measured is None:
                raise ValueError("tabular problem needs pool and measured objectives")
            if len(self._pool) != len(self._measured):
                raise ValueError("pool and measured objectives differ in length")
        else:
            if self._sampler is None or self._evaluator is None:
                raise ValueError("generative problem needs sampler and evaluator")

    @classmethod
    def tabular(
        cls,
        name: str,
        decision_names: Sequence[str],
        schema: ObjectiveSchema,
        rows: Sequence[Sequence[float]],
        objectives: Sequence[Sequence[float]],
    ) -> "Problem":
        pool = [DecisionPoint(i, tuple(float(v) for v in r)) for i, r in enumerate(rows)]
        measured = [tuple(float(v) for v in o) for o in objectives]
        return cls(
            name=name,
            decision_names=decision_names,
            schema=schema,
            kind=ProblemKind.TABULAR,
            pool=pool,
            measured=measured,
        )

    @classmethod
    def generative(
        cls,
        name: str,
        decision_names: Sequence[str],
        schema: ObjectiveSchema,
        sampler: Callable[[random.Random, int], list[tuple[float, ...]]],
        evaluator: Callable[[tuple[float, ...]], tuple[float, ...]],
        repairer: Callable[[tuple[float, ...]], tuple[float, ...]] | None = None,
        gene_values: Sequence[Sequence[float]] | None = None,
    ) -> "Problem":
        return cls(
            name=name,
            decision_names=decision_names,
            schema=schema,
            kind=ProblemKind.GENERATIVE,
            sampler=sampler,
            evaluator=evaluator,
            repairer=repairer,
            gene_values=gene_values,
        )

    @property
    def decision_arity(self) -> int:
        return len(self.decision_names)

    @property
    def pool_size(self) -> int:
        if self._pool is None:
            raise ValueError(f"{self.name}: generative problems have no fixed pool")
        return len(self._pool)

    def pool(self) -> list[DecisionPoint]:
        if self._pool is None:
            raise ValueError(f"{self.name}: generative problems have no fixed pool")
        return list(self._pool)

    def decision_matrix(self) -> np.ndarray:
        """Pool decisions as an n-by-arity array (TABULAR only). Cached."""
        if self._pool is None:
            raise ValueError(f"{self.name}: generative problems have no fixed pool")
        if self._decision_matrix is None:
            self._decision_matrix = np.array(
                [p.decisions for p in self._pool], dtype=float
            )
        return self._decision_matrix

    def gene_values(self) -> tuple[tuple[float, ...], ...]:
        """Per-gene valid value sets, used by mutation operators."""
        if self._gene_values is not None:
            return self._gene_values
        if self.kind is ProblemKind.TABULAR:
            mat = self.decision_matrix()
            self._gene_values = tuple(
                tuple(sorted(set(mat[:, j].tolist()))) for j in range(self.decision_arity)
            )
            return self._gene_values
        raise ValueError(f"{self.name}: no gene value sets available")

    def repair(self, decisions: tuple[float, ...]) -> tuple[float, ...]:
        if self._repairer is None:
            return decisions
        return self._repairer(decisions)

    def evaluate(self, point: DecisionPoint) -> EvaluatedPoint:
        """Measure one point. Increments the evaluation counter by exactly 1."""
        if len(point.decisions) != self.decision_arity:
            raise ValueError(
                f"{self.name}: point arity {len(point.decisions)} != {self.decision_arity}"
            )
        if self.kind is ProblemKind.TABULAR:
            if not 0 <= point.id < len(self._pool):
                raise ValueError(f"{self.name}: unknown point id {point.id}")
            if self._pool[point.id].decisions != point.decisions:
                raise ValueError(
                    f"{self.name}: point {point.id} does not match the pool row"
                )
            values = self._measured[point.id]
        else:
            values = tuple(float(v) for v in self._evaluator(point.decisions))
            if len(values) != len(self.schema):
                raise ValueError(f"{self.name}: evaluator returned {len(values)} objectives")
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{self.name}: non-finite objective for id {point.id}")
        ev = EvaluatedPoint(point, ObjectiveVector(values), self.eval_count)
        self.eval_count += 1
        return ev

    def sample_decisions(self, rng: random.Random, n: int) -> list[tuple[float, ...]]:
        """Draw n fresh valid decision vectors (GENERATIVE only). A sampler
        leaves rng where n one-vector draws would, so callers may keep
        drawing from it."""
        if self._sampler is None:
            raise ValueError(f"{self.name}: tabular problems sample rows, not vectors")
        return self._sampler(rng, n)

    def sample_pool(self, n: int, seed: int) -> list[DecisionPoint]:
        """Seeded decision sample: without replacement for TABULAR pools,
        fresh valid vectors for GENERATIVE problems."""
        if n < 1:
            raise ValueError("sample size must be at least 1")
        rng = random.Random(seed)
        if self.kind is ProblemKind.TABULAR:
            if n > len(self._pool):
                raise ValueError(
                    f"{self.name}: sample of {n} exceeds pool size {len(self._pool)}"
                )
            return rng.sample(self._pool, n)
        return [DecisionPoint(i, d) for i, d in enumerate(self._sampler(rng, n))]

    def fresh(self) -> "Problem":
        """A clone with a zeroed evaluation counter, sharing the data."""
        clone = Problem.__new__(Problem)
        clone.__dict__.update(self.__dict__)
        clone.eval_count = 0
        return clone


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file. Undecodable bytes raise a LoadError that
    names the path and the line of the first bad byte."""
    data = Path(path).read_bytes()
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
    order defines point ids 0..n-1.
    """
    path = Path(path)
    lines = read_utf8(path).splitlines()
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

    rows: list[tuple[float, ...]] = []
    measured: list[tuple[float, ...]] = []
    seen: dict[tuple[float, ...], tuple[int, tuple[float, ...]]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise LoadError(
                f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}"
            )
        parsed: list[float] = []
        for col, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise LoadError(
                    f"{path}:{lineno}: non-numeric or non-finite cell '{cell}' "
                    f"in column {col + 1}"
                )
            parsed.append(value)
        dec = tuple(parsed[i] for i in decision_idx)
        obj = tuple(parsed[i] for i in objective_idx)
        if dec in seen:
            prev_line, prev_obj = seen[dec]
            if prev_obj != obj:
                raise LoadError(
                    f"{path}:{lineno}: row duplicates line {prev_line} "
                    "with conflicting objectives"
                )
        else:
            seen[dec] = (lineno, obj)
        rows.append(dec)
        measured.append(obj)
    if not rows:
        raise LoadError(f"{path}: no data rows")

    return Problem.tabular(path.stem, decision_names, schema, rows, measured)
