"""Closed-form stationary candidates: one two-level family, whose n = 4
members are the paper's four candidates and whose block and corner
members are the conjectured optimal matrices at every n.

A member (p, z, q) splits n = p + z + q with p >= q >= 1. With
g = gcd(p, q), its pattern vector c holds p entries x = q/g, z zeros and
q entries -y = -p/g, so p x = q y and c sums to zero. The point
a = b = alpha c, D = P - J = alpha^2 c c^T, is stationary at (s, t) for

    alpha^2 = g^2 (s - t) / (p q (s + (p + q - 1) t)).

In the reciprocal form (see ranktwo), with rho = s / t, a row at level x
reads (p + rho - 1)/(1 + x^2 alpha^2) + q/(1 - x y alpha^2) = p + q + rho - 1
and a row at level -y swaps (p, x) with (q, y). Each is linear in
alpha^2, and as p x = q y both are one equation. A row at level 0 holds
at any alpha, so z never enters. At n = 4, under the canonical ordering,
the nonzero symmetric stationary points are the members (3, 0, 1),
(2, 0, 2), (2, 1, 1) and (1, 2, 1): the sign patterns +++-, ++--, ++0-
and +00-.

The pairwise products a_i a_j = c_i c_j alpha^2 are rational even though
alpha is not, so candidate matrices, residuals and likelihoods all live
in exact rational arithmetic. Every candidate built here is verified to
have exactly zero reciprocal residual before it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .core import (Convention, FeasibilityError, Number, ProbMatrix,
                   WeightTable, convert_convention, entry_counts,
                   exact_likelihood, log_likelihood, map_entries)
from .ranktwo import RankTwoPoint, reciprocal_residual_exact

MP_DPS = 50
# The exact likelihood at integral weights (s, t) is a product of entry
# powers whose exponents sum to 4 s + 12 t, and its integers grow with that
# sum: forming the four takes 0.01 s at 1000:1 (sum 4012), 0.2 s at
# 1001:1000 (16004), 0.3 s at 5000:1 (20012) and 1 s at 10000:1 (40012).
# Up to this bound, which holds every t < s <= 1000, candidates carry it;
# above it they compare by 50-digit logs.
EXACT_EXPONENT_MAX = 20_000


class SignPattern(Enum):
    """The four n = 4 members of the two-level family, valued (p, z, q)."""

    PPPN = (3, 0, 1)
    PPNN = (2, 0, 2)
    PPZN = (2, 1, 1)
    PZZN = (1, 2, 1)

    @property
    def coeffs(self) -> tuple:
        return _levels(*self.value)

    @property
    def signs(self) -> str:
        p, z, q = self.value
        return "+" * p + "0" * z + "-" * q


def _levels(p: int, z: int, q: int) -> tuple:
    """The pattern vector c of the member (p, z, q)."""
    g = math.gcd(p, q)
    return (q // g,) * p + (0,) * z + (-(p // g),) * q


def _alpha_sq(p: int, q: int, s: Fraction, t: Fraction) -> Fraction:
    g = math.gcd(p, q)
    return g * g * (s - t) / (p * q * (s + (p + q - 1) * t))


def _member(p: int, z: int, q: int, s: Fraction, t: Fraction) -> tuple:
    """alpha^2 and the SUM_NSQ matrix J + alpha^2 c c^T of the member
    (p, z, q) at weights (s, t). c has at most three levels, so the matrix
    holds at most four distinct entries, 1 + u v alpha^2 for level products
    u v; each is formed once, and the rows of one level are one tuple."""
    x = _alpha_sq(p, q, s, t)
    c = _levels(p, z, q)
    entry = {uv: 1 + uv * x for uv in {u * v for u in set(c) for v in set(c)}}
    rows = {u: tuple(entry[u * v] for v in c) for u in set(c)}
    return x, ProbMatrix.of([rows[u] for u in c], Convention.SUM_NSQ)


@dataclass(frozen=True)
class Candidate:
    """One sign pattern with its exact scale, matrix and likelihood."""

    pattern: SignPattern
    s: Fraction
    t: Fraction
    alpha_sq: Fraction
    matrix: ProbMatrix
    likelihood: Optional[Fraction]
    loglik: float

    @property
    def alpha(self) -> float:
        return math.sqrt(self.alpha_sq)

    def products(self) -> tuple:
        """Exact table of pairwise products a_i a_j, the matrix less J."""
        return map_entries(lambda e: e - 1, self.matrix.entries)

    def point(self) -> RankTwoPoint:
        return RankTwoPoint.symmetric(self.a_values())

    def a_values(self) -> tuple:
        return tuple(ci * self.alpha for ci in self.pattern.coeffs)

    def loglik_mp(self, dps: int = MP_DPS):
        """Log-likelihood at high precision, an mpmath.mpf, usable for any
        positive weights."""
        # imported here: only weights without an exact likelihood need
        # mpmath, and loading it costs about 3.8 MB of resident memory
        import mpmath
        with mpmath.workdps(dps):
            total = mpmath.mpf(0)
            s = mpmath.mpf(self.s.numerator) / self.s.denominator
            t = mpmath.mpf(self.t.numerator) / self.t.denominator
            for i in range(self.matrix.n):
                for j in range(self.matrix.n):
                    p = Fraction(self.matrix.entries[i][j])
                    w = s if i == j else t
                    total += w * mpmath.log(mpmath.mpf(p.numerator) / p.denominator)
            return total

    def likelihood_text(self) -> Optional[str]:
        """The exact likelihood as "p/q" text, or None without one (see
        has_exact_likelihood) or when its integers pass Python's
        4300-digit limit for printing, as at weights 1000:1."""
        try:
            return None if self.likelihood is None else str(self.likelihood)
        except ValueError:
            return None

    def to_json_dict(self) -> dict:
        out = {"pattern": self.pattern.signs,
               "alpha_sq": str(self.alpha_sq),
               "a": list(self.a_values()),
               "matrix": self.matrix.to_json_dict(),
               "loglik": float(f"{self.loglik:.17g}")}
        if (likelihood := self.likelihood_text()) is not None:
            out["likelihood"] = likelihood
        else:
            import mpmath
            with mpmath.workdps(30):
                out["loglik_30"] = mpmath.nstr(self.loglik_mp(30), 30)
        return out


def _build_candidate(pattern: SignPattern, s: Fraction, t: Fraction) -> Candidate:
    x, matrix = _member(*pattern.value, s, t)
    if any(e <= 0 for e, _ in entry_counts(matrix.entries)):
        raise FeasibilityError(f"pattern {pattern.signs} leaves the interior")
    products = map_entries(lambda e: e - 1, matrix.entries)
    residual = reciprocal_residual_exact(products, s / t)
    if any(r != 0 for r in residual):
        raise RuntimeError(
            f"pattern {pattern.signs} is not stationary at these weights; "
            "no candidate exists")
    weights = WeightTable.symmetric(4, s, t)
    likelihood = (exact_likelihood(matrix, weights)
                  if has_exact_likelihood(s, t) else None)
    loglik = log_likelihood(matrix, weights)
    return Candidate(pattern=pattern, s=s, t=t, alpha_sq=x, matrix=matrix,
                     likelihood=likelihood, loglik=loglik)


def has_exact_likelihood(s: Number, t: Number) -> bool:
    """Whether candidates at weights (s, t) carry their exact likelihood:
    integral weights with 4 s + 12 t <= EXACT_EXPONENT_MAX."""
    s, t = Fraction(s), Fraction(t)
    return s.denominator == 1 and t.denominator == 1 \
        and 4 * s + 12 * t <= EXACT_EXPONENT_MAX


def enumerate_n4(s: Number, t: Number) -> list:
    """All four stationary candidates at weights (s, t), 0 < t < s."""
    s, t = Fraction(s), Fraction(t)
    if not 0 < t < s:
        raise ValueError("candidates degenerate to the flat matrix unless 0 < t < s")
    return [_build_candidate(pattern, s, t) for pattern in SignPattern]


def compare_candidates(candidates: Sequence[Candidate]) -> tuple:
    """(best, strict, method): the first candidate of largest likelihood,
    whether all others are strictly smaller, and the method: exact
    rationals when every candidate carries its likelihood (see
    has_exact_likelihood), 50-digit logs otherwise."""
    if all(c.likelihood is not None for c in candidates):
        keys = [c.likelihood for c in candidates]
        method = "exact rational comparison"
    else:
        keys = [c.loglik_mp() for c in candidates]
        method = "50-digit log comparison"
    best = max(range(len(candidates)), key=lambda i: keys[i])
    return candidates[best], keys.count(keys[best]) == 1, method


def global_candidate(s: Number, t: Number,
                     candidates: Optional[Sequence[Candidate]] = None) -> Candidate:
    """The candidate with the strictly largest likelihood. A tie raises,
    since the four values are expected to be pairwise distinct."""
    best, strict, _ = compare_candidates(
        enumerate_n4(s, t) if candidates is None else candidates)
    if not strict:
        raise ValueError("tie between candidate likelihoods")
    return best


def candidate_lines(cands: Sequence[Candidate], winner: Candidate,
                    indent: str) -> list:
    """Text rows of the candidates, the winner marked with *, followed by
    the winner's matrix in the sum-one convention."""
    lines = []
    for cand in cands:
        mark = "*" if cand is winner else " "
        likelihood = cand.likelihood_text()
        like = (f"L = {likelihood}" if likelihood is not None
                else f"log L = {cand.loglik:.17g}")
        lines.append(f"{indent}{mark} {cand.pattern.signs}  alpha^2 = "
                     f"{cand.alpha_sq}  {like}")
    lines.append("winner matrix (sum-one convention):")
    sum_one = convert_convention(winner.matrix, Convention.SUM_ONE)
    lines.extend("    " + "  ".join(str(x) for x in row) for row in sum_one.entries)
    return lines


def block_matrix(n: int, s: Number, t: Number) -> ProbMatrix:
    """Two-block matrix conjectured optimal for 0 < t < s, SUM_ONE form:
    the member (ceil(n/2), 0, floor(n/2)). A diagonal block of size k
    holds (s - t)/k + t, the off blocks t, all over n s + (n-1) n t."""
    if n < 2:
        raise ValueError("block matrix needs n >= 2")
    s, t = Fraction(s), Fraction(t)
    if not 0 < t < s:
        raise ValueError("block matrix requires 0 < t < s")
    return convert_convention(_member((n + 1) // 2, 0, n // 2, s, t)[1],
                              Convention.SUM_ONE)


def block_point(n: int, s: Number, t: Number) -> RankTwoPoint:
    """Rank-two coordinates of block_matrix in the SUM_NSQ convention."""
    if n < 2:
        raise ValueError("block matrix needs n >= 2")
    s, t = float(s), float(t)
    if not 0 < t < s:
        raise ValueError("block matrix requires 0 < t < s")
    p = (n + 1) // 2
    q = n - p
    denom = s + (n - 1) * t
    beta_p = math.sqrt((s - t) * q / (p * denom))
    beta_q = math.sqrt((s - t) * p / (q * denom))
    a = [beta_p] * p + [-beta_q] * q
    # p*beta_p = q*beta_q analytically; remove the rounding residue
    drift = sum(a) / n
    return RankTwoPoint.symmetric([x - drift for x in a])


def corner_matrix(n: int, s: Number, t: Number) -> ProbMatrix:
    """Corner-perturbed flat matrix conjectured optimal for 0 < s <= t,
    SUM_ONE form: the member (1, n - 2, 1). Its entries are 1/n^2 but at
    the corners: 2s/(n^2 (s+t)) on the diagonal, 2t/(n^2 (s+t)) off it."""
    if n < 2:
        raise ValueError("corner matrix needs n >= 2")
    s, t = Fraction(s), Fraction(t)
    if not 0 < s <= t:
        raise ValueError("corner matrix requires 0 < s <= t")
    return convert_convention(_member(1, n - 2, 1, s, t)[1], Convention.SUM_ONE)


def corner_point(n: int, s: Number, t: Number) -> RankTwoPoint:
    """Rank-two coordinates of corner_matrix: a and b carry opposite
    signs in the two corner coordinates, with a_1 b_1 = (s-t)/(s+t)."""
    if n < 2:
        raise ValueError("corner matrix needs n >= 2")
    s, t = float(s), float(t)
    if not 0 < s <= t:
        raise ValueError("corner matrix requires 0 < s <= t")
    alpha = math.sqrt((t - s) / (s + t))
    a = [0.0] * n
    b = [0.0] * n
    a[0], a[-1] = alpha, -alpha
    b[0], b[-1] = -alpha, alpha
    return RankTwoPoint.of(a, b)
