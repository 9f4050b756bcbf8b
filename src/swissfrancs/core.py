"""Tables, matrices and likelihood evaluation.

The objects here are deliberately small and immutable: a weight table
holds the per-cell exponents of the likelihood as one n x n table (the
symmetric weights, s on the diagonal and t elsewhere, are one such
table), and a probability matrix holds an n x n nonnegative matrix
together with its normalization convention (entries summing to 1, or to
n^2 after the scale-up that makes the all-ones matrix the natural base
point).

Likelihoods come in two flavors: a float log-likelihood with the usual
ln(0) = -inf convention, and an exact rational product for rational
matrices with integer exponents, which is what makes strict comparisons
between candidate optima trustworthy.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence, Union

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
    exact, floats stay floats; ValueError for any other JSON value and
    for a zero denominator."""
    if isinstance(text, str):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"{text!r} has a zero denominator") from None
    if isinstance(text, bool) or not isinstance(text, (int, float, Fraction)):
        raise ValueError(f"{text!r} is not a number")
    return text


def require_integer(name: str, value) -> None:
    """Raise ValueError unless value is an integer (a numpy one included),
    not a bool and not a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def format_number(value: Number) -> Union[str, int, float]:
    """Inverse of parse_rational for JSON emission: "p/q" for proper
    fractions, "p" for integral ones."""
    if isinstance(value, Fraction):
        return str(value)
    return value


def _freeze_rows(rows: Iterable[Iterable[Number]]) -> tuple:
    return tuple(tuple(row) for row in rows)


# Exact matrices here are mostly built from a few shared rows of a few
# shared values (the two-level candidates of an n x n matrix hold at most
# four distinct entries), so the helpers below work once per distinct row
# or entry object and weight sums by counts. They group by identity, which
# costs a dict lookup, and not by value, which would hash every Fraction;
# each keeps the objects it has seen alive, so no id is reused meanwhile.


def _tally(pairs: Iterable) -> list:
    """[x, k] for each distinct object x of the (x, k) pairs, with the ks
    of its pairs summed, in order of first occurrence."""
    counts = {}
    for x, k in pairs:
        seen = counts.get(id(x))
        if seen is None:
            counts[id(x)] = [x, k]
        else:
            seen[1] += k
    return list(counts.values())


def entry_counts(rows: Sequence[Sequence[Number]]) -> list:
    """[x, count] for each distinct entry object of the matrix rows, in
    the row-major order of first occurrence."""
    return _tally((x, k) for row, k in _tally((row, 1) for row in rows) for x in row)


def _weighted_sum(pairs: Iterable) -> Number:
    """The sum of x * k over the (x, k) pairs, with no product where k is 1."""
    return sum(x if k == 1 else x * k for x, k in pairs)


def map_entries(f: Callable, rows: Sequence[Sequence[Number]]) -> tuple:
    """The rows with f applied to every entry, as a tuple of tuples: f runs
    once per distinct entry object, and a row object that recurs gives one
    shared result row, so the result shares as the input does."""
    done = {}
    mapped = {}
    out = []
    for row in rows:
        seen = mapped.get(id(row))
        if seen is None:
            new = []
            for x in row:
                y = done.get(id(x))
                if y is None:
                    y = done[id(x)] = (x, f(x))
                new.append(y[1])
            seen = mapped[id(row)] = (row, tuple(new))
        out.append(seen[1])
    return tuple(out)


def line_sums(rows: Sequence[Sequence[Number]]) -> tuple:
    """The row sums and the column sums of the matrix rows, as two lists.
    Each distinct row is summed once over its distinct entries times their
    counts, and each column once over the distinct rows times theirs; equal
    lines share one sum. Exact for exact entries; floats would be summed in
    another order than entry by entry."""
    distinct = _tally((row, 1) for row in rows)
    row_sum = {id(row): _weighted_sum(entry_counts((row,))) for row, _ in distinct}
    col_sum = {}
    cols = []
    for j in range(len(rows[0]) if rows else 0):
        key = tuple(id(row[j]) for row, _ in distinct)
        if key not in col_sum:
            col_sum[key] = _weighted_sum((row[j], k) for row, k in distinct)
        cols.append(col_sum[key])
    return [row_sum[id(row)] for row in rows], cols


def _require_float_weights(values: Sequence[Number], name: Callable) -> None:
    """Raise ValueError, naming the weight name(x), at the first x of values
    that is not finite, else at the first that is outside the float range:
    the solvers take each weight and s/t as floats, and one that overflows,
    or a positive one that rounds to 0, makes them overflow or divide by 0."""
    for x in values:
        if not _is_exact(x) and not math.isfinite(x):
            raise ValueError(f"weight {name(x)} is not finite: {x!r}")
    for x in values:
        try:
            in_range = x == 0 or float(x) > 0
        except OverflowError:
            in_range = False
        if not in_range:
            raise ValueError(f"weight {name(x)} is outside the float range")


@dataclass(frozen=True)
class WeightTable:
    """Per-cell exponents of the likelihood: a frozen n x n nonnegative
    table w. Symmetric weights are the table with s on the diagonal and t
    elsewhere; symmetric() builds one, and symmetric_pair() reads (s, t)
    back from any table of that shape."""

    w: tuple

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError(f"table side must be positive, got {n}")
        if any(len(row) != n for row in self.w):
            raise ValueError("full weights require an n x n table")
        values = [x for x, _ in self._counts]
        if any(x < 0 for x in values):
            raise ValueError("weights must be nonnegative")
        if all(x == 0 for x in values):
            raise ValueError("at least one weight must be positive")
        _require_float_weights(values, lambda x: next(
            f"w[{i}][{j}]" for i, row in enumerate(self.w)
            for j, y in enumerate(row) if y is x))

    @classmethod
    def symmetric(cls, n: int, s: Number, t: Number) -> "WeightTable":
        require_integer("n", n)
        if n < 1:
            raise ValueError(f"table side must be positive, got {n}")
        if s is None or t is None or s <= 0 or t <= 0:
            raise ValueError("symmetric weights require s > 0 and t > 0")
        _require_float_weights((s, t), lambda x: "s" if x is s else "t")
        _require_float_weights((Fraction(s) / Fraction(t),), lambda _: "ratio s/t")
        return cls(tuple(tuple(s if i == j else t for j in range(n)) for i in range(n)))

    @classmethod
    def full(cls, w: Sequence[Sequence[Number]]) -> "WeightTable":
        return cls(_freeze_rows(w))

    @property
    def n(self) -> int:
        return len(self.w)

    @cached_property
    def _counts(self) -> list:
        """entry_counts of the table."""
        return entry_counts(self.w)

    def as_array(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.w])

    def total(self) -> Number:
        return sum(x for row in self.w for x in row)

    def symmetric_pair(self):
        """Return (s, t) if the table has the diagonal/off-diagonal shape
        with s, t > 0, else None; a 1 x 1 table has no off-diagonal cell."""
        diag = {self.w[i][i] for i in range(self.n)}
        off = {x for i, row in enumerate(self.w) for j, x in enumerate(row) if i != j}
        if len(diag) == 1 and len(off) == 1:
            s, t = next(iter(diag)), next(iter(off))
            if s > 0 and t > 0:
                return s, t
        return None

    def is_integral(self) -> bool:
        return all(_is_exact(x) and Fraction(x).denominator == 1 for x, _ in self._counts)

    def to_json_dict(self) -> dict:
        """The symmetric form {n, s, t} when symmetric_pair() finds one,
        else the full form {n, w}."""
        pair = self.symmetric_pair()
        if pair is not None:
            return {"n": self.n, "kind": "symmetric",
                    "s": format_number(pair[0]), "t": format_number(pair[1])}
        return {"n": self.n, "kind": "full",
                "w": [[format_number(x) for x in row] for row in self.w]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "WeightTable":
        """The table a JSON object of either form describes; ValueError
        when data is not an object or lacks a field its kind needs."""
        if not isinstance(data, dict):
            raise ValueError("a weight table must be a JSON object")
        kind = data.get("kind")
        if kind not in ("symmetric", "full"):
            raise ValueError(f"unknown weight table kind {kind!r}")
        needed = ("n", "s", "t") if kind == "symmetric" else ("n", "w")
        missing = [name for name in needed if name not in data]
        if missing:
            raise ValueError(f"{kind} weight table lacks {', '.join(missing)}")
        n = parse_rational(data["n"])
        if not (n.is_integer() if isinstance(n, float) else Fraction(n).denominator == 1):
            raise ValueError(f"table side n must be an integer, got {data['n']!r}")
        n = int(n)
        if kind == "symmetric":
            return cls.symmetric(n, parse_rational(data["s"]), parse_rational(data["t"]))
        w = data["w"]
        if not isinstance(w, list) or not all(isinstance(row, list) for row in w):
            raise ValueError("w must be a list of rows")
        table = cls.full([[parse_rational(x) for x in row] for row in w])
        if table.n != n:
            raise ValueError("declared n does not match table shape")
        return table


def swiss_counts() -> WeightTable:
    """The 4x4 count table with 4 on the diagonal and 2 elsewhere."""
    return WeightTable.symmetric(4, 4, 2)


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
        for x, _ in self._counts:
            if x != x:  # NaN alone is unequal to itself
                raise ValueError(f"entry {x} is not a number")
            if x < 0:
                raise ValueError(f"negative entry {x}")
        target = 1 if self.convention is Convention.SUM_ONE else self.n * self.n
        if self.is_exact:
            total = _weighted_sum(self._counts)
            if total != target:
                raise ValueError(f"exact entries must sum to {target}, got {total}")
        else:
            # floats are summed entry by entry, in row-major order
            total = sum(x for row in self.entries for x in row)
            tol = SUM_ONE_TOL if self.convention is Convention.SUM_ONE else SUM_NSQ_TOL
            if not abs(float(total) - target) <= tol:
                raise ValueError(
                    f"entries sum to {float(total)!r}, expected {target} within {tol}")

    @classmethod
    def of(cls, rows: Sequence[Sequence[Number]],
           convention: Convention = Convention.SUM_NSQ) -> "ProbMatrix":
        frozen = _freeze_rows(rows)
        return cls(n=len(frozen), convention=convention, entries=frozen)

    @cached_property
    def _counts(self) -> list:
        """entry_counts of the entries."""
        return entry_counts(self.entries)

    @cached_property
    def is_exact(self) -> bool:
        return all(_is_exact(x) for x, _ in self._counts)

    def as_array(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.entries])

    def to_json_dict(self) -> dict:
        return {"n": self.n, "convention": self.convention.value,
                "entries": [list(row) for row in map_entries(format_number, self.entries)]}


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
        rows = map_entries(lambda x: x * nsq, P.entries)
    elif P.is_exact:
        rows = map_entries(lambda x: Fraction(x) / nsq, P.entries)
    else:
        rows = map_entries(lambda x: x / nsq, P.entries)
    return ProbMatrix.of(rows, target)


def log_likelihood(P: ProbMatrix, W: WeightTable, number: Callable = float,
                   log: Callable = math.log):
    """Weighted log-likelihood sum(w_ij * ln p_ij), summed in row-major
    order over number(w_ij) * log(number(p_ij)): floats by default, or any
    number type the caller's number and log give, such as mpmath intervals.

    Cells with zero weight contribute nothing even at p = 0; a zero entry
    under a positive weight makes the value -inf.
    """
    if P.n != W.n:
        raise ValueError(f"dimension mismatch: matrix {P.n}, weights {W.n}")
    total = number(0)
    for prow, wrow in zip(P.entries, W.w):
        for p, w in zip(prow, wrow):
            if w == 0:
                continue
            if p == 0:
                return float("-inf")
            total += number(w) * log(number(p))
    return total


def exact_likelihood(P: ProbMatrix, W: WeightTable) -> Fraction:
    """Exact product prod(p_ij ** w_ij) for rational entries and integer
    nonnegative exponents, taken as prod(v ** e_v) over the distinct entry
    objects v, with e_v the sum of the weights of the cells v fills."""
    if P.n != W.n:
        raise ValueError(f"dimension mismatch: matrix {P.n}, weights {W.n}")
    if not W.is_integral():
        raise ValueError("exponents must be nonnegative integers; "
                         "use log_likelihood for real exponents")
    if not P.is_exact:
        raise ValueError("exact_likelihood requires rational matrix entries")
    exponents = _tally((p, int(w)) for prow, wrow in zip(P.entries, W.w)
                       for p, w in zip(prow, wrow))
    result = Fraction(1)
    for p, w in exponents:
        if w == 0:
            continue
        p = Fraction(p)
        if p <= 0:
            raise FeasibilityError("exact_likelihood requires positive entries")
        result *= p ** w
    return result


def load_weight_table(path: str) -> WeightTable:
    with open(path, "r", encoding="utf-8") as fh:
        return WeightTable.from_json_dict(json.load(fh))
