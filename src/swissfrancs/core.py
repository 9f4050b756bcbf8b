"""Tables, matrices and likelihood evaluation.

The objects here are deliberately small and immutable: a weight table
holds the per-cell exponents of the likelihood (either an explicit count
table or the symmetric diagonal/off-diagonal pair), and a probability
matrix holds an n x n nonnegative matrix together with its normalization
convention (entries summing to 1, or to n^2 after the scale-up that makes
the all-ones matrix the natural base point).

Likelihoods come in two flavors: a float log-likelihood with the usual
ln(0) = -inf convention, and an exact rational product for rational
matrices with integer exponents, which is what makes strict comparisons
between candidate optima trustworthy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

Number = Union[int, float, Fraction]

SUM_ONE_TOL = 1e-12
SUM_NSQ_TOL = 1e-9


class FeasibilityError(ValueError):
    """A matrix or point violates positivity required by the operation."""


class RankTwoError(ValueError):
    """A matrix is not representable in the rank-two form, or a point
    cannot be brought to canonical form."""


class ConvergenceError(RuntimeError):
    """An iterative procedure hit its cap without reaching tolerance."""


class Convention(Enum):
    SUM_ONE = "SUM_ONE"
    SUM_NSQ = "SUM_NSQ"


def _is_exact(value: Number) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def parse_rational(text: Union[str, int, float, Fraction]) -> Number:
    """Parse a JSON scalar: "p/q" strings become Fractions, ints stay
    exact, floats stay floats."""
    if isinstance(text, str):
        return Fraction(text)
    if isinstance(text, bool):
        raise ValueError("boolean is not a number")
    return text


def format_number(value: Number) -> Union[str, int, float]:
    """Inverse of parse_rational for JSON emission: "p/q" for proper
    fractions, "p" for integral ones."""
    if isinstance(value, Fraction):
        return str(value)
    return value


def _freeze_rows(rows: Iterable[Iterable[Number]]) -> tuple:
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class WeightTable:
    """Per-cell exponents of the likelihood.

    kind "symmetric" keeps only the diagonal exponent s and off-diagonal
    exponent t; kind "full" stores an explicit n x n nonnegative table.
    """

    n: int
    kind: str
    s: Number | None = None
    t: Number | None = None
    w: tuple | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"table side must be positive, got {self.n}")
        if self.kind == "symmetric":
            if self.s is None or self.t is None or self.s <= 0 or self.t <= 0:
                raise ValueError("symmetric weights require s > 0 and t > 0")
        elif self.kind == "full":
            if self.w is None or len(self.w) != self.n or any(len(r) != self.n for r in self.w):
                raise ValueError("full weights require an n x n table")
            if any(x < 0 for row in self.w for x in row):
                raise ValueError("weights must be nonnegative")
            if all(x == 0 for row in self.w for x in row):
                raise ValueError("at least one weight must be positive")
        else:
            raise ValueError(f"unknown weight table kind {self.kind!r}")
        named = ([("s", self.s), ("t", self.t)] if self.kind == "symmetric" else
                 [(f"w[{i}][{j}]", x) for i, row in enumerate(self.w)
                  for j, x in enumerate(row)])
        for name, value in named:
            if not _is_exact(value) and not math.isfinite(value):
                raise ValueError(f"weight {name} is not finite: {value!r}")
        if self.kind == "symmetric":
            # the solvers take s, t and s/t as floats: one that rounds to 0
            # or overflows makes them divide by zero or overflow
            ratio = Fraction(self.s) / Fraction(self.t)
            for name, value in (("s", self.s), ("t", self.t), ("ratio s/t", ratio)):
                try:
                    in_range = float(value) > 0
                except OverflowError:
                    in_range = False
                if not in_range:
                    raise ValueError(f"weight {name} is outside the float range")

    @classmethod
    def symmetric(cls, n: int, s: Number, t: Number) -> "WeightTable":
        return cls(n=n, kind="symmetric", s=s, t=t)

    @classmethod
    def full(cls, w: Sequence[Sequence[Number]]) -> "WeightTable":
        rows = _freeze_rows(w)
        return cls(n=len(rows), kind="full", w=rows)

    def cell(self, i: int, j: int) -> Number:
        if self.kind == "symmetric":
            return self.s if i == j else self.t
        return self.w[i][j]

    def as_array(self) -> np.ndarray:
        return np.array([[float(self.cell(i, j)) for j in range(self.n)]
                         for i in range(self.n)])

    def total(self) -> Number:
        if self.kind == "symmetric":
            return self.n * self.s + self.n * (self.n - 1) * self.t
        return sum(x for row in self.w for x in row)

    def symmetric_pair(self):
        """Return (s, t) if the table has the diagonal/off-diagonal shape,
        else None."""
        if self.kind == "symmetric":
            return self.s, self.t
        diag = {self.w[i][i] for i in range(self.n)}
        off = {self.w[i][j] for i in range(self.n) for j in range(self.n) if i != j}
        if len(diag) == 1 and len(off) == 1:
            s, t = next(iter(diag)), next(iter(off))
            if s > 0 and t > 0:
                return s, t
        return None

    def is_integral(self) -> bool:
        if self.kind == "symmetric":
            return _is_exact(self.s) and Fraction(self.s).denominator == 1 \
                and _is_exact(self.t) and Fraction(self.t).denominator == 1
        return all(_is_exact(x) and Fraction(x).denominator == 1
                   for row in self.w for x in row)

    def to_json_dict(self) -> dict:
        if self.kind == "symmetric":
            return {"n": self.n, "kind": "symmetric",
                    "s": format_number(self.s), "t": format_number(self.t)}
        return {"n": self.n, "kind": "full",
                "w": [[format_number(x) for x in row] for row in self.w]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "WeightTable":
        """The table a JSON object describes; ValueError when data is not
        an object or lacks a field its kind needs."""
        if not isinstance(data, dict):
            raise ValueError("a weight table must be a JSON object")
        kind = data.get("kind")
        needed = {"symmetric": ("n", "s", "t"), "full": ("n", "w")}.get(kind, ())
        missing = [name for name in needed if name not in data]
        if missing:
            raise ValueError(f"{kind} weight table lacks {', '.join(missing)}")
        if kind == "symmetric":
            return cls.symmetric(int(data["n"]),
                                 parse_rational(data["s"]), parse_rational(data["t"]))
        if kind == "full":
            rows = [[parse_rational(x) for x in row] for row in data["w"]]
            table = cls.full(rows)
            if table.n != int(data["n"]):
                raise ValueError("declared n does not match table shape")
            return table
        raise ValueError(f"unknown weight table kind {kind!r}")


def swiss_counts() -> WeightTable:
    """The 4x4 count table with 4 on the diagonal and 2 elsewhere."""
    return WeightTable.full([[4 if i == j else 2 for j in range(4)] for i in range(4)])


@dataclass(frozen=True)
class ProbMatrix:
    """An n x n nonnegative matrix with a declared normalization.

    Entries may be floats or exact rationals; exactness is preserved by
    convention conversion and consumed by exact_likelihood.
    """

    n: int
    convention: Convention
    entries: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("matrix side must be positive")
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise ValueError("entries must form an n x n matrix")
        for row in self.entries:
            for x in row:
                if x < 0:
                    raise ValueError(f"negative entry {x}")
        total = sum(x for row in self.entries for x in row)
        target = 1 if self.convention is Convention.SUM_ONE else self.n * self.n
        if self.is_exact:
            if total != target:
                raise ValueError(f"exact entries must sum to {target}, got {total}")
        else:
            tol = SUM_ONE_TOL if self.convention is Convention.SUM_ONE else SUM_NSQ_TOL
            if abs(float(total) - target) > tol:
                raise ValueError(
                    f"entries sum to {float(total)!r}, expected {target} within {tol}")

    @classmethod
    def of(cls, rows: Sequence[Sequence[Number]],
           convention: Convention = Convention.SUM_NSQ) -> "ProbMatrix":
        frozen = _freeze_rows(rows)
        return cls(n=len(frozen), convention=convention, entries=frozen)

    @property
    def is_exact(self) -> bool:
        return all(_is_exact(x) for row in self.entries for x in row)

    def as_array(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.entries])

    def to_json_dict(self) -> dict:
        return {"n": self.n, "convention": self.convention.value,
                "entries": [[format_number(x) for x in row] for row in self.entries]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProbMatrix":
        rows = [[parse_rational(x) for x in row] for row in data["entries"]]
        matrix = cls.of(rows, Convention(data["convention"]))
        if matrix.n != int(data["n"]):
            raise ValueError("declared n does not match entry shape")
        return matrix


def convert_convention(P: ProbMatrix, target: Convention) -> ProbMatrix:
    """Rescale entries by n^2 (or 1/n^2) to move between conventions.

    Exact entries are rescaled exactly, so the round trip is the identity.
    """
    if P.convention is target:
        return P
    nsq = P.n * P.n
    if not P.is_exact:
        nsq = float(nsq)
    if target is Convention.SUM_NSQ:
        rows = [[x * nsq for x in row] for row in P.entries]
    else:
        if P.is_exact:
            rows = [[Fraction(x) / nsq for x in row] for row in P.entries]
        else:
            rows = [[x / nsq for x in row] for row in P.entries]
    return ProbMatrix.of(rows, target)


def log_likelihood(P: ProbMatrix, W: WeightTable) -> float:
    """Weighted log-likelihood sum(w_ij * ln p_ij).

    Cells with zero weight contribute nothing even at p = 0; a zero entry
    under a positive weight makes the value -inf.
    """
    if P.n != W.n:
        raise ValueError(f"dimension mismatch: matrix {P.n}, weights {W.n}")
    total = 0.0
    for i in range(P.n):
        for j in range(P.n):
            w = W.cell(i, j)
            if w == 0:
                continue
            p = P.entries[i][j]
            if p == 0:
                return float("-inf")
            total += float(w) * math.log(float(p))
    return total


def exact_likelihood(P: ProbMatrix, W: WeightTable) -> Fraction:
    """Exact product prod(p_ij ** w_ij) for rational entries and integer
    nonnegative exponents."""
    if P.n != W.n:
        raise ValueError(f"dimension mismatch: matrix {P.n}, weights {W.n}")
    if not W.is_integral():
        raise ValueError("exponents must be nonnegative integers; "
                         "use log_likelihood for real exponents")
    if not P.is_exact:
        raise ValueError("exact_likelihood requires rational matrix entries")
    result = Fraction(1)
    for i in range(P.n):
        for j in range(P.n):
            w = int(W.cell(i, j))
            if w == 0:
                continue
            p = Fraction(P.entries[i][j])
            if p <= 0:
                raise FeasibilityError("exact_likelihood requires positive entries")
            result *= p ** w
    return result


def load_weight_table(path: str) -> WeightTable:
    with open(path, "r", encoding="utf-8") as fh:
        return WeightTable.from_json_dict(json.load(fh))
