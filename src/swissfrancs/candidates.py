"""Closed-form stationary candidates at n = 4 and the conjectured
optimal matrices for general n.

Under the canonical ordering, a nonzero symmetric stationary point at
n = 4 has one of four sign patterns, each rigid up to the single scale
alpha = a_1. Solving the reciprocal stationarity equations for the
pattern vector c gives alpha^2 as a rational function of the weights:

    (+,+,+,-)  alpha^2 = (s - t) / (3 s + 9 t)
    (+,+,-,-)  alpha^2 = (s - t) / (s + 3 t)
    (+,+,0,-)  alpha^2 = (s - t) / (2 s + 4 t)
    (+,0,0,-)  alpha^2 = (s - t) / (s + t)

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
                   WeightTable, convert_convention, exact_likelihood,
                   log_likelihood)
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
    PPPN = (1, 1, 1, -3)
    PPNN = (1, 1, -1, -1)
    PPZN = (1, 1, 0, -2)
    PZZN = (1, 0, 0, -1)

    @property
    def coeffs(self) -> tuple:
        return self.value

    @property
    def signs(self) -> str:
        return "".join("+" if c > 0 else "0" if c == 0 else "-" for c in self.value)


def _alpha_sq(pattern: SignPattern, s: Fraction, t: Fraction) -> Fraction:
    if pattern is SignPattern.PPPN:
        return (s - t) / (3 * s + 9 * t)
    if pattern is SignPattern.PPNN:
        return (s - t) / (s + 3 * t)
    if pattern is SignPattern.PPZN:
        return (s - t) / (2 * s + 4 * t)
    return (s - t) / (s + t)


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

    def products(self) -> list:
        """Exact table of pairwise products a_i a_j."""
        c = self.pattern.coeffs
        return [[ci * cj * self.alpha_sq for cj in c] for ci in c]

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
    x = _alpha_sq(pattern, s, t)
    c = pattern.coeffs
    entries = [[1 + ci * cj * x for cj in c] for ci in c]
    matrix = ProbMatrix.of(entries, Convention.SUM_NSQ)
    if any(e <= 0 for row in entries for e in row):
        raise FeasibilityError(f"pattern {pattern.signs} leaves the interior")
    products = [[ci * cj * x for cj in c] for ci in c]
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
    """Two-block matrix conjectured optimal for 0 < t < s, SUM_ONE form.

    The diagonal blocks have sizes ceil(n/2) and floor(n/2) with entries
    (s - t)/size + t, the off blocks hold t, and the whole table is
    scaled by 1/(n s + (n-1) n t) so it sums to one.
    """
    if n < 2:
        raise ValueError("block matrix needs n >= 2")
    s, t = Fraction(s), Fraction(t)
    if not 0 < t < s:
        raise ValueError("block matrix requires 0 < t < s")
    p = (n + 1) // 2
    q = n - p
    scale = Fraction(1, n * s + (n - 1) * n * t)
    top = (s - t) / p + t
    bottom = (s - t) / q + t
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i < p and j < p:
                value = top
            elif i >= p and j >= p:
                value = bottom
            else:
                value = t
            row.append(value * scale)
        rows.append(row)
    return ProbMatrix.of(rows, Convention.SUM_ONE)


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
    SUM_ONE form: entries 1/n^2 except the four corners, which hold
    2s/(n^2 (s+t)) on the main diagonal and 2t/(n^2 (s+t)) off it."""
    if n < 2:
        raise ValueError("corner matrix needs n >= 2")
    s, t = Fraction(s), Fraction(t)
    if not 0 < s <= t:
        raise ValueError("corner matrix requires 0 < s <= t")
    base = Fraction(1, n * n)
    near = 2 * s / (n * n * (s + t))
    far = 2 * t / (n * n * (s + t))
    rows = [[base] * n for _ in range(n)]
    rows[0][0] = rows[n - 1][n - 1] = near
    rows[0][n - 1] = rows[n - 1][0] = far
    return ProbMatrix.of(rows, Convention.SUM_ONE)


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
