"""The rank-two parametrization P = J + b a^T and its calculus.

Every positive matrix with equal row and column sums n and rank(P - J)
at most 1 can be written entrywise as p_ij = 1 + b_i * a_j with zero-sum
vectors a and b. The map is invariant under (a, b) -> (c a, b / c) for
c > 0, so points carry a gauge freedom that canonicalize() pins down by
sorting, equalizing the leading pair and fixing the sign convention.

The first-order conditions of the weighted log-likelihood, with weight
ratio rho = s / t, come in two equivalent shapes: the plain gradient form
and the reciprocal form in which every row sums to n + rho - 1. The
reciprocal form is a polynomial identity in the pairwise products
a_i * b_j, so it is computed only exactly: reciprocal_residual_exact
evaluates it from the rational product table, for certify's exact
stationarity check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (Convention, ConvergenceError, FeasibilityError, Number,
                   ProbMatrix, RankTwoError, line_sums, map_entries)

ZERO_SUM_TOL = 1e-12
FEASIBILITY_MARGIN = 1e-14
ZERO_TOL = 1e-14


@dataclass(frozen=True)
class RankTwoPoint:
    """Vectors (a, b) of length n encoding the matrix 1 + b_i a_j.

    Both vectors must sum to zero (relative tolerance 1e-12). Interior
    feasibility, min(1 + a_i b_j) > 0, is not required at construction;
    operations that need it check and raise FeasibilityError.
    """

    n: int
    a: tuple
    b: tuple

    def __post_init__(self):
        if self.n < 1 or len(self.a) != self.n or len(self.b) != self.n:
            raise ValueError("a and b must both have length n")
        _require_zero_sum(np.array([self.a], dtype=float), np.array([self.b], dtype=float))

    @classmethod
    def of(cls, a: Sequence[float], b: Sequence[float]) -> "RankTwoPoint":
        return cls(n=len(a), a=tuple(float(x) for x in a), b=tuple(float(x) for x in b))

    @classmethod
    def rows(cls, a: np.ndarray, b: np.ndarray) -> list:
        """One point per row of the (K, n) float arrays a and b, n >= 1.
        __post_init__'s zero-sum test runs once over the arrays, with the
        same ValueError, and the points are then built without it."""
        if a.ndim != 2 or a.shape != b.shape or a.shape[1] < 1:
            raise ValueError("a and b must both be (K, n) arrays with n >= 1")
        _require_zero_sum(a, b)
        points = []
        for ra, rb in zip(a.tolist(), b.tolist()):
            pt = object.__new__(cls)
            # a frozen dataclass's own __init__ sets its fields this way
            object.__setattr__(pt, "n", len(ra))
            object.__setattr__(pt, "a", tuple(ra))
            object.__setattr__(pt, "b", tuple(rb))
            points.append(pt)
        return points

    @classmethod
    def symmetric(cls, a: Sequence[float]) -> "RankTwoPoint":
        return cls.of(a, a)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array(self.a, dtype=float), np.array(self.b, dtype=float))

    def is_zero(self) -> bool:
        """Every coordinate of a and b below ZERO_TOL in size."""
        return max(abs(x) for x in self.a) < ZERO_TOL and max(abs(x) for x in self.b) < ZERO_TOL

    def to_json_dict(self) -> dict:
        return {"n": self.n, "a": list(self.a), "b": list(self.b)}


def _require_zero_sum(a: np.ndarray, b: np.ndarray) -> None:
    """Raise ValueError unless every row v of the (K, n) arrays a and b has
    |sum v| <= ZERO_SUM_TOL * max(1, |v|). cumsum adds in index order, so
    each row's sums are those of a Python loop over it."""
    for name, vec in (("a", a), ("b", b)):
        norm = np.sqrt((vec * vec).cumsum(axis=-1)[:, -1])
        total = vec.cumsum(axis=-1)[:, -1]
        if (np.abs(total) > ZERO_SUM_TOL * np.maximum(1.0, norm)).any():
            raise ValueError(f"{name} must sum to zero")


def _require_interior(pt: RankTwoPoint) -> np.ndarray:
    """The n x n table 1 + b_i a_j of pt; FeasibilityError unless its least
    entry exceeds FEASIBILITY_MARGIN."""
    T = entry_tables(*pt.arrays())
    if T.min() <= FEASIBILITY_MARGIN:
        raise FeasibilityError(f"point is not interior: min entry {float(T.min())!r}")
    return T


def to_matrix(pt: RankTwoPoint) -> ProbMatrix:
    """Build the SUM_NSQ matrix with entries 1 + b_i a_j.

    Row and column sums equal n identically because a and b sum to zero.
    """
    return ProbMatrix.of(_require_interior(pt).tolist(), Convention.SUM_NSQ)


def entry_tables(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The tables T[..., i, j] = 1 + b_i a_j of (..., n) arrays a and b,
    formed in place, so a batch holds one (..., n, n) array. The 1 is of
    the table's own type, so Fraction object arrays stay exact."""
    T = b[..., :, None] * a[..., None, :]
    T += T.dtype.type(1)
    return T


def gradient(a: np.ndarray, b: np.ndarray, rho: float) -> np.ndarray:
    """Gradient of the scaled log-likelihood
    sum_ij ln(1 + b_i a_j) + (rho - 1) sum_i ln(1 + b_i a_i) in (a, b).

    Component i is the derivative in a_i, component n + j the derivative
    in b_j. a and b may carry leading batch axes, (..., n) -> (..., 2n);
    each row gets the bits a 1-D call on it gives. The caller guarantees
    interior feasibility.
    """
    return table_gradient(entry_tables(a, b), a, b, rho)


def table_gradient(T: np.ndarray, a: np.ndarray, b: np.ndarray,
                   rho: float) -> np.ndarray:
    """gradient(a, b, rho) from T = entry_tables(a, b), which it leaves
    unchanged, so a caller that needs the table again forms it once.
    The result keeps T's number type: Fractions in give Fractions out, and
    float tables give float64 whatever the type of rho."""
    one = T.dtype.type(1)
    diag = T.diagonal(0, -2, -1)
    grad_a = (b[..., :, None] / T).sum(axis=-2) + (rho - one) * b / diag
    grad_b = (a[..., None, :] / T).sum(axis=-1) + (rho - one) * a / diag
    return np.concatenate([grad_a, grad_b], axis=-1)


def hessian(a: np.ndarray, b: np.ndarray, rho: float) -> np.ndarray:
    """Exact 2n x 2n Hessian of the scaled log-likelihood in (a, b), in
    the component order of gradient(); batched like gradient(),
    (..., n) -> (..., 2n, 2n), in the number type of gradient()."""
    n = a.shape[-1]
    T = entry_tables(a, b)
    one = T.dtype.type(1)
    diag = T.diagonal(0, -2, -1)
    inv2 = one / T ** 2
    H = np.zeros(a.shape[:-1] + (2 * n, 2 * n), dtype=T.dtype)
    i = np.arange(n)
    # d grad_a[k] / d a_k and d grad_b[k] / d b_k; distinct a's do not interact
    H[..., i, i] = -(b[..., :, None] ** 2 * inv2).sum(axis=-2) \
        - (rho - one) * b ** 2 / diag ** 2
    H[..., n + i, n + i] = -(a[..., None, :] ** 2 * inv2).sum(axis=-1) \
        - (rho - one) * a ** 2 / diag ** 2
    # d grad_a[k] / d b_m = 1/T[m,k]^2 (+ diagonal correction), and symmetrically
    cross = np.swapaxes(inv2, -2, -1).copy()
    cross[..., i, i] += (rho - one) * (one / diag ** 2)
    H[..., :n, n:] = cross
    H[..., n:, :n] = np.swapaxes(cross, -2, -1)
    return H


def stationarity_residual(pt: RankTwoPoint, rho: float) -> np.ndarray:
    """Gradient form of the first-order conditions at weight ratio rho.

    The gradient() of the scaled log-likelihood at pt; it is zero exactly
    at stationary points with zero-sum a and b.
    """
    if rho <= 0:
        raise ValueError("weight ratio must be positive")
    return table_gradient(_require_interior(pt), *pt.arrays(), rho)


def reciprocal_residual_exact(products: Sequence[Sequence[Number]],
                              rho: Number) -> list:
    """Exact reciprocal residual from the rational product table.

    products[i][j] must hold a_i * b_j as exact rationals; the result is
    the 2n-vector of residuals as Fractions, exactly zero at stationary
    points. Each distinct entry object is inverted once and each distinct
    row and column summed once (map_entries, line_sums).
    """
    n = len(products)
    rho = Fraction(rho)
    recip = map_entries(lambda p: 1 / (1 + Fraction(p)), products)
    rows, cols = line_sums(recip)
    diag = map_entries(lambda r: (rho - 1) * r - (n + rho - 1),
                       [[recip[i][i] for i in range(n)]])[0]
    return [x + d for x, d in zip(rows + cols, diag + diag)]


def canonicalize(pt: RankTwoPoint) -> RankTwoPoint:
    """Gauge-fix a point: sort, equalize the leading pair, fix signs.

    The output has a sorted descending (b carried along by the same
    permutation), a_1 = b_1 = sqrt(a_1 b_1), and for n >= 3 the sign
    convention a_2 >= 0 enforced by the flip-and-reverse map. All pairwise
    products a_i b_j, and hence the matrix entries, are preserved up to
    the simultaneous permutation. Feasibility is not required.
    """
    if pt.is_zero():
        raise RankTwoError("cannot canonicalize the zero point")
    a, b = pt.arrays()
    order = sorted(range(pt.n), key=lambda i: (-a[i], -b[i], i))
    a, b = a[order], b[order]
    if pt.n >= 3 and a[1] < 0:
        a = -a[::-1]
        b = -b[::-1]
    head = a[0] * b[0]
    if head <= 0:
        raise RankTwoError("order hypothesis violated: leading product "
                           f"a_1 b_1 = {head!r} is not positive")
    scale = math.sqrt(b[0] / a[0])
    a = a * scale
    b = b / scale
    # pin the head pair to the exact geometric mean; the rescales agree
    # with it only up to rounding
    mid = math.sqrt(head)
    a[0] = mid
    b[0] = mid
    a = a - a.sum() / pt.n
    b = b - b.sum() / pt.n
    return RankTwoPoint.of(a, b)


def normalize_margins(P: ProbMatrix) -> ProbMatrix:
    """Alternately rescale rows then columns to margins n.

    Diagonal scaling preserves rank, and for symmetric weights each half
    sweep cannot decrease the likelihood. Returns the input unchanged when
    the margins already sit within 1e-12 of n.
    """
    if P.convention is not Convention.SUM_NSQ:
        raise ValueError("normalize_margins expects the SUM_NSQ convention")
    arr = P.as_array()
    if arr.min() <= 0:
        raise FeasibilityError("matrix must be strictly positive")
    n = P.n
    tol = 1e-12

    def margin_error(m: np.ndarray) -> float:
        return max(np.abs(m.sum(axis=1) - n).max(), np.abs(m.sum(axis=0) - n).max())

    if margin_error(arr) <= tol:
        return P
    for _ in range(10_000):
        arr = arr * (n / arr.sum(axis=1))[:, None]
        arr = arr * (n / arr.sum(axis=0))[None, :]
        if margin_error(arr) <= tol:
            return ProbMatrix.of(arr.tolist(), Convention.SUM_NSQ)
    raise ConvergenceError(
        f"margin normalization did not converge: error {margin_error(arr):.3e}")
