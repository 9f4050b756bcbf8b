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

import decimal
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .core import (Convention, FeasibilityError, Number, ProbMatrix,
                   WeightTable, convert_convention, entry_counts,
                   exact_likelihood, log_likelihood, map_entries)
from .ranktwo import RankTwoPoint, reciprocal_residual_exact

# The exact likelihood at integral weights (s, t) is a product of entry
# powers whose exponents sum to 4 s + 12 t, and its integers grow with that
# sum: forming the four takes 0.01 s at 1000:1 (sum 4012), 0.2 s at
# 1001:1000 (16004), 0.3 s at 5000:1 (20012) and 1 s at 10000:1 (40012).
# Up to this bound, which holds every t < s <= 1000, candidates carry it;
# above it they compare by interval logs at the precisions of LOG_DIGITS.
EXACT_EXPONENT_MAX = 20_000
# Digits of the interval logs, tried in turn until the enclosures decide.
# Near s = t the four log L agree to about twice the digits of s/t - 1:
# 50 digits separate them up to 1e16 + 1 : 1e16, 100 digits up to
# 1e32 + 1 : 1e32, and 1600 digits still at 1e307 + 1 : 1e307, in 0.7 s.
LOG_DIGITS = (50, 100, 200, 400, 800, 1600)
# A likelihood is printed only while its numerator and denominator are each
# below this bound (at most 4300 digits, Python's default int-to-str limit),
# so 1000:1 prints log L. The digits are formatted through decimal, which
# that limit does not cap, so PYTHONINTMAXSTRDIGITS leaves the text alone.
LIKELIHOOD_TEXT_BOUND = 10 ** 4300


class SignPattern(Enum):
    """The four n = 4 members of the two-level family, valued (p, z, q)."""

    PPPN = (3, 0, 1)
    PPNN = (2, 0, 2)
    PPZN = (2, 1, 1)
    PZZN = (1, 2, 1)

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


def _member_vectors(c: tuple, x: Fraction) -> tuple:
    """The float vectors (a, b) of the pattern vector c at alpha^2 = x:
    a = sqrt|x| c, and b = a, or b = -a where x < 0, so b a^T = x c c^T."""
    x = float(x)
    root = math.sqrt(abs(x))
    a = tuple(ci * root for ci in c)
    return a, a if x >= 0 else tuple(-ci * root for ci in c)


def _member_point(p: int, z: int, q: int, s: Number, t: Number) -> RankTwoPoint:
    """The float point of the member (p, z, q) at weights s, t > 0: at
    s < t, alpha^2 < 0 and b = -a."""
    x = _alpha_sq(p, q, Fraction(s), Fraction(t))
    return RankTwoPoint.of(*_member_vectors(_levels(p, z, q), x))


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

    def products(self) -> tuple:
        """Exact table of pairwise products a_i a_j, the matrix less J."""
        return map_entries(lambda e: e - 1, self.matrix.entries)

    def point(self) -> RankTwoPoint:
        return _member_point(*self.pattern.value, self.s, self.t)

    def loglik_interval(self, dps: int):
        """An mpmath interval that encloses the log-likelihood, computed at
        dps digits in an interval context of its own: mpmath's global
        precisions stay as they were, and concurrent calls do not meet."""
        # imported here: only likelihoods that are neither compared nor
        # printed exactly need mpmath, which costs about 3.8 MB resident
        from mpmath import MPIntervalContext
        iv = MPIntervalContext()
        iv.dps = dps
        return log_likelihood(self.matrix, WeightTable.symmetric(4, self.s, self.t),
                              lambda x: iv.mpf(x.numerator) / x.denominator, iv.log)

    def likelihood_text(self) -> Optional[str]:
        """The exact likelihood as str() prints it, "p/q", or None without
        one (see has_exact_likelihood) or when its numerator or denominator
        reaches LIKELIHOOD_TEXT_BOUND, as at weights 1000:1."""
        like = self.likelihood
        if like is None or max(like.numerator, like.denominator) >= LIKELIHOOD_TEXT_BOUND:
            return None
        num, den = (str(decimal.Decimal(k)) for k in (like.numerator, like.denominator))
        return num if den == "1" else f"{num}/{den}"

    def to_json_dict(self) -> dict:
        out = {"pattern": self.pattern.signs,
               "alpha_sq": str(self.alpha_sq),
               "a": list(_member_vectors(_levels(*self.pattern.value),
                                         self.alpha_sq)[0]),
               "matrix": self.matrix.to_json_dict(),
               "loglik": float(self.loglik)}
        if (likelihood := self.likelihood_text()) is not None:
            out["likelihood"] = likelihood
        else:
            out["loglik_30"] = _loglik_30(self)
        return out


def _enclosures(candidates: Sequence[Candidate]):
    """(dps, endpoints) for each dps of LOG_DIGITS in turn: the lower and
    upper ends of each candidate's loglik_interval(dps), as mpmath.mpf
    numbers of a context of its own at dps digits, which hold them
    exactly."""
    from mpmath import MPContext
    for dps in LOG_DIGITS:
        mp = MPContext()
        mp.dps = dps
        yield dps, [(mp.mpf(x.a), mp.mpf(x.b))
                    for x in (c.loglik_interval(dps) for c in candidates)]


def _loglik_30(cand: Candidate) -> str:
    """The log-likelihood rounded to 30 significant digits: the first
    mpmath.nstr text that both ends of an enclosure give, so every digit
    is proved. Past the last precision it is the lower end's text."""
    import mpmath
    for _, [(lo, hi)] in _enclosures([cand]):
        text = mpmath.nstr(lo, 30)
        if mpmath.nstr(hi, 30) == text:
            return text
    return text


def _build_candidate(pattern: SignPattern, s: Fraction, t: Fraction,
                     weights: WeightTable, exact: bool) -> Candidate:
    """The candidate of pattern at weights (s, t), whose table is weights;
    it carries its exact likelihood when exact is true."""
    x, matrix = _member(*pattern.value, s, t)
    if any(e <= 0 for e, _ in entry_counts(matrix.entries)):
        raise FeasibilityError(f"pattern {pattern.signs} leaves the interior")
    products = map_entries(lambda e: e - 1, matrix.entries)
    residual = reciprocal_residual_exact(products, s / t)
    if any(r != 0 for r in residual):
        raise RuntimeError(
            f"pattern {pattern.signs} is not stationary at these weights; "
            "no candidate exists")
    likelihood = exact_likelihood(matrix, weights) if exact else None
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
    weights, exact = WeightTable.symmetric(4, s, t), has_exact_likelihood(s, t)
    return [_build_candidate(pattern, s, t, weights, exact) for pattern in SignPattern]


def compare_candidates(candidates: Sequence[Candidate]) -> tuple:
    """(best, strict, method): the first candidate of largest likelihood,
    whether all others are strictly smaller, and the method. When every
    candidate carries its likelihood (see has_exact_likelihood) the
    rationals decide. Otherwise the interval logs do, at the first digits
    of LOG_DIGITS where the largest lower end lies above every other
    candidate's upper end; when none does, strict is False and best is the
    first of largest lower end at the last precision."""
    if all(c.likelihood is not None for c in candidates):
        keys = [c.likelihood for c in candidates]
        best = max(range(len(candidates)), key=lambda i: keys[i])
        return candidates[best], keys.count(keys[best]) == 1, "exact rational comparison"
    for dps, ends in _enclosures(candidates):
        best = max(range(len(candidates)), key=lambda i: ends[i][0])
        if all(ends[best][0] > hi for i, (_, hi) in enumerate(ends) if i != best):
            return candidates[best], True, f"{dps}-digit log comparison"
    return candidates[best], False, f"no separation at {LOG_DIGITS[-1]} digits"


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
