"""Mechanized checks of the facts behind the global-maximum certificate.

Each operation here turns one supporting fact into an executable check:
exact bounds on the four n = 4 candidates, sign and order agreement
between the two parametrizing vectors, the root structure of the
degree-six numerator attached to symmetric stationary points, the exact
divisibility that forces a2 = b2, the negativity scan of its 17-term
cofactor over the feasible box, and the tail-pair quadratic. LEMMAS is
the one registry of these checks: each entry is called as
check(s, t, cands=None) and returns a CheckResult.
`swissfrancs verify --lemma NAME` prints one entry, and certify() runs
the steps named in CERTIFY_STEPS between its exact candidate comparison
and an independent multistart search to reach a machine-checkable
verdict; matrix_checks tests the matrix it names for stationarity,
margins and rank in rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .candidates import (Candidate, block_matrix, candidate_lines,
                         compare_candidates, corner_matrix, enumerate_n4)
from .core import (Convention, ConvergenceError, Number, ProbMatrix,
                   WeightTable, convert_convention, line_sums, log_likelihood,
                   map_entries, require_integer)
from .polys import A1, A2, B2, Poly3, greedy_multiset_match
from .ranktwo import (RankTwoPoint, reciprocal_residual_exact,
                      stationarity_residual)
from .solvers import MultistartResult, SolverConfig, multistart

DOMINANCE_TOL = 1e-8
SIGN_ORDER_TOL = 1e-9
# rows of an a1 slice that f3_region_scan evaluates at once: at resolution
# 400 each 80-row block's temporaries peak at 0.6 MB, against 2.6 MB for a
# whole slice, at about the same speed
SCAN_BLOCK = 80

VERDICT_CERTIFIED = "CERTIFIED_CANDIDATE_MAX"
VERDICT_SUPPORTED = "SUPPORTED"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"


# ---------------------------------------------------------------------------
# scalar helpers


def _f1_parts(x, y):
    """Numerator E and cleared denominator Q of f1 = E / Q, at numbers or
    at polynomial arguments."""
    Q = 5 * (1 + x) * (1 + y) - 2 * (1 + y) - (1 + x)
    E = (2 - x - y) * (1 + x) * (1 + y) + (x + y - 1) * Q
    return E, Q


def f1_eval(x: Number, y: Number) -> Number:
    """The tail-product function f1(x, y) = (2-x-y)/(5 - 2/(1+x) - 1/(1+y))
    + x + y - 1.

    At a symmetric stationary point, f1 of the two leading products equals
    the product of the two trailing ones. Exact for exact inputs.
    """
    E, Q = _f1_parts(x, y)
    if Q == 0:
        raise ValueError("f1 undefined: cleared denominator vanishes")
    return E / Q


def f3_eval(a1: Number, a2: Number, b2: Number) -> Number:
    """The 17-term cofactor polynomial whose negativity on the feasible
    box forces the second coordinates of the two vectors to agree.

    Evaluated as a quadratic in a2 in Horner form, (c2 a2 + c1) a2 + c0
    with c2, c1 and c0 polynomials in (a1, b2), so an array a2 costs four
    full-size array operations. Works for exact rationals, floats, arrays
    and polynomial-valued arguments.
    """
    c2 = (20 * a1 ** 4 * b2 ** 2 + 15 * a1 ** 3 * b2 + 3 * a1 ** 2 * b2 ** 2
          + 2 * a1 * b2 - 4 * b2 ** 2)
    c1 = (3 * a1 ** 4 * b2 + 15 * a1 ** 3 * b2 ** 2 + 2 * a1 ** 3
          + 10 * a1 ** 2 * b2 + 2 * a1 * b2 ** 2 - 3 * a1 - b2)
    c0 = -4 * a1 ** 4 + 2 * a1 ** 3 * b2 - a1 ** 2 - 3 * a1 * b2 - 2
    return (c2 * a2 + c1) * a2 + c0


def reference_f3_poly() -> Poly3:
    return f3_eval(A1, A2, B2)


def _sqrt_fraction(value: Fraction) -> Optional[Fraction]:
    if value < 0:
        return None
    n = math.isqrt(value.numerator)
    d = math.isqrt(value.denominator)
    if n * n == value.numerator and d * d == value.denominator:
        return Fraction(n, d)
    return None


def tail_pair_solve(A1v: Number, A2v: Number) -> Tuple[Number, Number]:
    """Solve for the two trailing diagonal entries given the leading two.

    Uses the two constraints sum(A_i) = 4 and 2/A_1 + 1/A_2 + 1/A_3 +
    1/A_4 = 5: the tail pair solves z^2 - sigma z + pi with
    sigma = 4 - A_1 - A_2 and pi = sigma / (5 - 2/A_1 - 1/A_2). Exact
    for exact inputs with a square discriminant; the larger root comes
    first.
    """
    if A1v <= 0 or A2v <= 0:
        raise ValueError("leading entries must be positive")
    sigma = 4 - A1v - A2v
    denom = 5 - 2 / A1v - 1 / A2v
    if denom == 0:
        raise ValueError("tail product undefined: reciprocal sum leaves no room")
    pi = sigma / denom
    if sigma <= 0 or pi <= 0:
        raise ValueError(f"no positive stationary tail: sigma={sigma}, pi={pi}")
    disc = sigma * sigma - 4 * pi
    if disc < 0:
        raise ValueError("no real stationary tail: negative discriminant")
    exact = not isinstance(A1v, float) and not isinstance(A2v, float)
    if exact:
        root = _sqrt_fraction(Fraction(disc))
        if root is not None:
            high = (Fraction(sigma) + root) / 2
            low = (Fraction(sigma) - root) / 2
            return high, low
    root = math.sqrt(float(disc))
    return (float(sigma) + root) / 2, (float(sigma) - root) / 2


# ---------------------------------------------------------------------------
# pointwise checks


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome: passed is None when the check does not apply.
    detail is the text body and data the JSON body of `verify --lemma`."""
    name: str
    passed: Optional[bool]
    detail: str
    data: Optional[dict] = None

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def bounds_established(s: Number, t: Number) -> bool:
    """Whether s/t = 2, the one weight ratio at which the bounds, f1,
    factorization, f3 and tail-pair facts are established."""
    return Fraction(s) / Fraction(t) == 2


@dataclass(frozen=True)
class SignOrderReport:
    passed: bool
    witness: Optional[tuple]

    def to_json_dict(self) -> dict:
        return {"passed": self.passed,
                "witness": list(self.witness) if self.witness else None}


def _sign_order(n: int, sign, order, tol=0) -> SignOrderReport:
    """The first i with sign(i) < -tol, else the first pair i < j with
    order(i, j) < -tol, as the witness of a failed report."""
    for i in range(n):
        if sign(i) < -tol:
            return SignOrderReport(passed=False, witness=("sign", i))
    for i in range(n):
        for j in range(i + 1, n):
            if order(i, j) < -tol:
                return SignOrderReport(passed=False, witness=("order", i, j))
    return SignOrderReport(passed=True, witness=None)


def sign_order_check(pt: RankTwoPoint) -> SignOrderReport:
    """Check a_i b_i >= 0 and (a_i - a_j)(b_i - b_j) >= 0 up to
    SIGN_ORDER_TOL.

    These hold at every stationary point when the diagonal weight
    dominates; a failure returns the violating index or pair.
    """
    a, b = pt.arrays()
    return _sign_order(pt.n, lambda i: a[i] * b[i],
                       lambda i, j: (a[i] - a[j]) * (b[i] - b[j]), SIGN_ORDER_TOL)


def sign_order_exact(P) -> SignOrderReport:
    """sign_order_check read exactly off the product table
    P[i][j] = a_i b_j, with no tolerance: a_i b_i = P_ii and
    (a_i - a_j)(b_i - b_j) = P_ii - P_ij - P_ji + P_jj."""
    return _sign_order(len(P), lambda i: P[i][i],
                       lambda i, j: P[i][i] - P[i][j] - P[j][i] + P[j][j])


# ---------------------------------------------------------------------------
# the degree-six numerator


@dataclass(frozen=True)
class FPolyReport:
    coefficients: tuple
    degree: int
    constant: float
    linear: float
    roots: tuple
    reference: tuple
    degree_six: bool
    multiset_matched: bool
    coordinates_are_roots: bool
    function_zeros_in_reference: bool

    @property
    def passed(self) -> bool:
        """The facts that hold at every n = 4 candidate; degree six and the
        multiset match fail when coordinates repeat, so they are not required."""
        return (self.constant == 0 and abs(self.linear) < 1e-12
                and self.coordinates_are_roots
                and self.function_zeros_in_reference)

    def to_json_dict(self) -> dict:
        return {"coefficients": list(self.coefficients),
                "degree": self.degree,
                "constant": self.constant, "linear": self.linear,
                "roots": [[r.real, r.imag] for r in self.roots],
                "reference": list(self.reference),
                "degree_six": self.degree_six,
                "multiset_matched": self.multiset_matched,
                "coordinates_are_roots": self.coordinates_are_roots,
                "function_zeros_in_reference": self.function_zeros_in_reference}


def f_polynomial(pt: RankTwoPoint, rho: float = 2.0) -> FPolyReport:
    """Numerator N of the stationarity function
    F(x) = sum_i 1/(1 + a_i x) + (rho - 1)/(1 + x^2) - (n + rho - 1)
    over the product (1 + x^2) Q(x) of its denominators,
    Q(x) = prod_i (1 + a_i x).

    The identity sum_i Q/(1 + a_i x) - n Q = -x Q' gives
    N(x) = -x [(1 + x^2) Q'(x) + (rho - 1) x Q(x)]: the constant
    coefficient is 0 and the linear one, -Q'(0) = -sum_i a_i, vanishes
    with the zero sum, so x^2 divides N. At a symmetric stationary point
    every coordinate a_k is a root too. Repeated coordinates shrink the
    actual degree and leave uncancelled pole positions among the
    numerator roots, so the report distinguishes roots of the numerator
    from zeros of F itself.
    """
    a, b = pt.arrays()
    if pt.n != 4:
        raise ValueError("the numerator expansion is specific to n = 4")
    if np.abs(a - b).max() > 1e-8:
        raise ValueError("requires a symmetric point (a = b)")
    if max(np.abs(a).max(), np.abs(b).max()) < 1e-12:
        raise ValueError("degenerate: the zero point collapses the numerator "
                         "below degree 6")
    resid = np.abs(stationarity_residual(pt, rho)).max()
    if resid > 1e-10:
        raise ValueError(f"point is not stationary: residual {resid:.3e}")
    q = np.poly(-a)   # prod_i (x + a_i) highest degree first: Q lowest first
    inner = np.convolve([1.0, 0.0, 1.0], q[1:] * np.arange(1, 5))
    inner[1:] += (rho - 1) * q
    coeffs = np.concatenate(([0.0], -inner))
    roots = np.roots(coeffs[::-1])
    degree = len(roots)                  # np.roots drops exact leading zeros
    reference = tuple(sorted(a)) + (0.0, 0.0)
    scale = np.abs(coeffs).max()
    coords_are_roots = bool((np.abs(np.polyval(coeffs[::-1], a)) <= 1e-9 * scale).all())
    # a root where the denominator (1 + x^2) Q vanishes is an uncancelled
    # pole position, not a zero of F
    at_pole = np.abs((1 + roots ** 2) * np.polyval(q[::-1], roots)) <= 1e-8
    in_reference = ((np.abs(roots.imag) <= 1e-8)
                    & (np.abs(roots.real[:, None] - reference).min(axis=1) <= 1e-8))
    return FPolyReport(coefficients=tuple(coeffs[:degree + 1].tolist()), degree=degree,
                       constant=float(coeffs[0]), linear=float(coeffs[1]),
                       roots=tuple(roots), reference=reference,
                       degree_six=degree == 6,
                       multiset_matched=greedy_multiset_match(roots, reference),
                       coordinates_are_roots=coords_are_roots,
                       function_zeros_in_reference=bool((at_pole | in_reference).all()))


# ---------------------------------------------------------------------------
# the a2 = b2 factorization


def cross_equation_poly() -> Poly3:
    """The primitive polynomial form f2 of the cross equation
    f1(a1^2, a1 a2)/a1^2 = f1(a2 b2, a1 b2)/b2^2.

    Built as the numerator over the common denominator and normalized by
    stripping monomial and rational content with a positive leading
    coefficient.
    """
    E1, Q1 = _f1_parts(A1 * A1, A1 * A2)
    E2, Q2 = _f1_parts(A2 * B2, A1 * B2)
    raw = E1 * (B2 * B2) * Q2 - E2 * (A1 * A1) * Q1
    return raw.primitive()


@dataclass(frozen=True)
class FactorizationReport:
    f2: Poly3
    difference: Poly3
    quotient: Poly3
    remainder: Poly3
    cofactor: Optional[Poly3]
    cofactor_constant: Optional[Fraction]
    quotient_at_origin: Fraction
    reference_at_origin: Fraction

    @property
    def remainder_zero(self) -> bool:
        return self.remainder.is_zero()

    def to_json_dict(self) -> dict:
        return {"f2_terms": self.f2.num_terms(),
                "remainder_zero": self.remainder_zero,
                "quotient_terms": self.quotient.num_terms(),
                "cofactor": self.cofactor.to_string() if self.cofactor else None,
                "cofactor_constant": (None if self.cofactor_constant is None else
                                      str(self.cofactor_constant)),
                "quotient_at_origin": str(self.quotient_at_origin),
                "reference_f3_at_origin": str(self.reference_at_origin)}


def lemma_a2_factorization() -> FactorizationReport:
    """Verify that swapping a2 and b2 in the cross equation produces a
    difference exactly divisible by (a2 - b2), and relate the quotient to
    the explicit 17-term cofactor.

    With the primitive normalization the quotient equals exactly twice
    the reference polynomial; a nonzero remainder would flag a
    transcription error.
    """
    f2 = cross_equation_poly()
    difference = f2 - f2.swap_a2_b2()
    quotient, remainder = difference.divide(A2 - B2)
    reference = reference_f3_poly()
    cofactor, rem2 = quotient.divide(reference)
    constant = None
    if rem2.is_zero() and cofactor.degree() == 0 and not cofactor.is_zero():
        constant = cofactor.terms[(0, 0, 0)]
    return FactorizationReport(
        f2=f2, difference=difference, quotient=quotient, remainder=remainder,
        cofactor=cofactor if rem2.is_zero() else None,
        cofactor_constant=constant,
        quotient_at_origin=Fraction(quotient.evaluate(0, 0, 0)),
        reference_at_origin=Fraction(reference.evaluate(0, 0, 0)))


# ---------------------------------------------------------------------------
# the f3 negativity scan


@dataclass(frozen=True)
class ScanResult:
    max_value: float
    argmax: tuple
    resolution: int
    n_points: int

    @property
    def threads(self) -> int:
        """Threads the scan ran on: always 1, the calling thread."""
        return worker_count()

    @property
    def negative(self) -> bool:
        return self.max_value < 0

    @property
    def below_reference_bound(self) -> bool:
        return self.max_value <= -549 / 500

    def to_json_dict(self) -> dict:
        return {"max_value": self.max_value, "argmax": list(self.argmax),
                "resolution": self.resolution, "n_points": self.n_points,
                "threads": self.threads, "negative": self.negative,
                "below_reference_bound": self.below_reference_bound}


def worker_count() -> int:
    """Threads f3_region_scan runs on: 1. The benchmark harness records it."""
    return 1


def f3_region_scan(resolution: int) -> ScanResult:
    """Grid scan of the 17-term cofactor over the bounded feasible box
    {0 < a1 <= 1/sqrt(2), 0 <= a2, b2 <= min(a1, 1/(5 a1))}.

    One loop on the calling thread walks the a1 slices in order and each
    slice SCAN_BLOCK rows at a time. The maximum is deterministic, with
    ties resolved toward the lexicographically first grid index. The
    maximum must come out negative.
    """
    if resolution < 10:
        raise ValueError("resolution must be at least 10")
    best = None
    for a1 in np.linspace(0.0, 1.0 / math.sqrt(2), resolution + 1)[1:].tolist():
        grid = np.linspace(0.0, min(a1, 1.0 / (5.0 * a1)), resolution)
        # a later block wins only when strictly larger, as np.argmax keeps
        # the first maximum within one block
        for lo in range(0, resolution, SCAN_BLOCK):
            values = f3_eval(a1, grid[lo:lo + SCAN_BLOCK, None], grid[None, :])
            i, j = divmod(int(np.argmax(values)), resolution)
            if best is None or values[i, j] > best[0]:
                best = float(values[i, j]), (a1, float(grid[lo + i]), float(grid[j]))
    best_value, best_arg = best
    if best_value >= 0:
        raise RuntimeError(f"scan found a nonnegative value {best_value!r} "
                           f"at {best_arg}")
    return ScanResult(max_value=best_value, argmax=best_arg,
                      resolution=resolution, n_points=resolution ** 3)


# ---------------------------------------------------------------------------
# the certificate


@dataclass(frozen=True)
class Certificate:
    n: int
    s: Number
    t: Number
    verdict: str
    checks: tuple
    # None when no multistart start converged
    multistart_result: Optional[MultistartResult]
    candidates: Optional[tuple] = None
    winner: Optional[Candidate] = None
    conjecture: Optional[str] = None
    conjectured_matrix: Optional[ProbMatrix] = None
    conjectured_loglik: Optional[float] = None
    conjectured_residual: Optional[float] = None

    def to_json_dict(self) -> dict:
        out = {"n": self.n, "s": str(self.s), "t": str(self.t),
               "verdict": self.verdict,
               "checks": [c.to_json_dict() for c in self.checks],
               "multistart": None if self.multistart_result is None
               else self.multistart_result.to_json_dict()}
        if self.candidates is not None:
            out["candidates"] = [c.to_json_dict() for c in self.candidates]
        if self.winner is not None:
            out["winner"] = self.winner.to_json_dict()
            out["winner_sum_one"] = convert_convention(
                self.winner.matrix, Convention.SUM_ONE).to_json_dict()
        if self.conjecture is not None:
            out["conjecture"] = self.conjecture
            out["conjectured_matrix"] = self.conjectured_matrix.to_json_dict()
            out["conjectured_loglik"] = float(f"{self.conjectured_loglik:.17g}")
            out["conjectured_residual"] = self.conjectured_residual
        return out

    def to_text(self) -> str:
        lines = [f"certificate for n={self.n}, s={self.s}, t={self.t}",
                 f"verdict: {self.verdict}"]
        if self.candidates is not None:
            lines.append("candidates:")
            lines.extend(candidate_lines(self.candidates, self.winner, "  "))
        if self.conjecture is not None:
            lines.append(f"conjectured {self.conjecture} matrix, "
                         f"log L = {self.conjectured_loglik:.17g}, "
                         f"stationarity residual = {self.conjectured_residual:.3e}")
        ms = self.multistart_result
        if ms is None:
            lines.append("multistart: no start converged")
        else:
            lines.append(f"multistart: best log L = {ms.best.loglik:.17g} over "
                         f"{ms.config.starts} starts (seed {ms.config.seed}, "
                         f"{len(ms.clusters)} clusters)")
        for check in self.checks:
            status = ("PASS" if check.passed else
                      "SKIP" if check.passed is None else "FAIL")
            detail = check.detail.replace("\n", "\n      ")
            lines.append(f"  [{status}] {check.name}: {detail}")
        return "\n".join(lines)


def matrix_checks(matrix: ProbMatrix, rho: Number) -> tuple:
    """The exact_stationarity, margins and rank checks of a SUM_NSQ matrix
    P with rational entries at weight ratio rho, and its largest reciprocal
    residual, all in rational arithmetic on D = P - J.

    With D_ij = a_i b_j, the reciprocal residual of coordinate i is -a_i
    times the gradient in a_i, so by itself it proves nothing where a_i = 0;
    exact_stationarity also asks that D be symmetric, which forces b_i = 0
    there and so that gradient, (rho - 1) b_i for zero-sum b, to 0. rank
    asks that every 2 x 2 minor through one nonzero pivot of D vanish.
    Each step runs once per distinct entry, row or column object of D
    (map_entries, line_sums, _minors), so a two-level matrix costs a few
    operations at any n.
    """
    n = matrix.n
    D = map_entries(lambda x: Fraction(x) - 1, matrix.entries)
    residual = max(reciprocal_residual_exact(D, rho), key=abs)
    # tuple comparison skips entries that are the same object
    symmetric = D == tuple(zip(*D))
    stationary = CheckResult(
        "exact_stationarity", symmetric and residual == 0,
        "P - J is not symmetric" if not symmetric else
        "reciprocal residual identically zero in rational arithmetic"
        if residual == 0 else f"largest reciprocal residual {residual}")
    row_sums, col_sums = line_sums(D)
    margins = CheckResult(
        "margins", not any(row_sums) and not any(col_sums),
        "row and column sums equal n exactly")
    # a zero D has no nonzero pivot, and every minor through (0, 0) is 0
    p, q = next(((i, j) for i in range(n) for j in range(n) if D[i][j]), (0, 0))
    minor = next((m for m in _minors(D, p, q) if m), 0)
    rank = CheckResult("rank", minor == 0,
                       "every 2 x 2 minor of P - J vanishes exactly" if minor == 0
                       else f"P - J has a nonzero 2 x 2 minor {minor}")
    return (stationary, margins, rank), residual


def _minors(D: tuple, p: int, q: int):
    """The 2 x 2 minors D_ij D_pq - D_iq D_pj of the rows D in row-major
    order, each formed once per distinct (D_ij, D_iq, D_pj) of objects: a
    row object that recurs, and a column pair that recurs within a row,
    repeat a minor already given."""
    pivot, seen_rows, pivot_row = D[p][q], set(), D[p]
    for row in D:
        if id(row) in seen_rows:
            continue
        seen_rows.add(id(row))
        seen = set()
        for x, y in zip(row, pivot_row):
            if (id(x), id(y)) not in seen:
                seen.add((id(x), id(y)))
                yield x * pivot - row[q] * y


def _dominance(label: str, loglik: float, ms: Optional[MultistartResult],
               failure: Optional[str]) -> CheckResult:
    """Whether the multistart search's best does not beat loglik by more
    than DOMINANCE_TOL; failed, with the reason, when the search found
    nothing."""
    if ms is None:
        return CheckResult("multistart_dominance", False, failure)
    return CheckResult(
        "multistart_dominance", bool(loglik >= ms.best.loglik - DOMINANCE_TOL),
        f"{label} log L {loglik:.17g} vs search best {ms.best.loglik:.17g}")


def certify(n: int, s: Number, t: Number, cfg: SolverConfig) -> Certificate:
    """Assemble the certificate for weights (s, t) on n x n matrices.

    For n = 4 with t < s the four candidates are enumerated and compared
    exactly, the winner gets the exact_stationarity and margins checks of
    matrix_checks, the registry checks named in CERTIFY_STEPS run at
    (s, t), and an independent multistart search must not beat the winner;
    that yields CERTIFIED_CANDIDATE_MAX. A skipped step does not block that
    verdict. All other shapes take the conjectured block or corner matrix
    through all three matrix_checks and compare it against multistart, and
    can reach at most SUPPORTED. When no multistart start converges,
    multistart_dominance fails with that reason and the verdict is
    INCONCLUSIVE.
    """
    require_integer("n", n)
    if n < 2:
        raise ValueError("certificates need n >= 2")
    weights = WeightTable.symmetric(n, s, t)
    rho = Fraction(s) / Fraction(t)
    try:
        ms, failure = multistart(weights, cfg), None
    except ConvergenceError as exc:
        ms, failure = None, f"search failed: {exc}"

    if n == 4 and t < s:
        cands = tuple(enumerate_n4(s, t))
        winner, strict, method = compare_candidates(cands)
        (stationary, margins, _), _ = matrix_checks(winner.matrix, rho)
        checks = [CheckResult("exact_ordering", strict, method), stationary, margins,
                  *(LEMMAS[name](s, t, cands) for name in CERTIFY_STEPS),
                  _dominance("winner", winner.loglik, ms, failure)]
        decided = [c.passed for c in checks if c.passed is not None]
        verdict = VERDICT_CERTIFIED if all(decided) else VERDICT_INCONCLUSIVE
        return Certificate(n=n, s=s, t=t, verdict=verdict, checks=tuple(checks),
                           multistart_result=ms, candidates=cands, winner=winner)

    conjecture = "block" if t < s else "corner"
    matrix = (block_matrix if t < s else corner_matrix)(n, s, t)
    nsq = convert_convention(matrix, Convention.SUM_NSQ)
    loglik = log_likelihood(nsq, weights)
    exact, residual = matrix_checks(nsq, rho)
    checks = [*exact, _dominance("conjectured", loglik, ms, failure)]
    verdict = VERDICT_SUPPORTED if all(
        c.passed for c in checks if c.passed is not None) else VERDICT_INCONCLUSIVE
    return Certificate(n=n, s=s, t=t, verdict=verdict, checks=tuple(checks),
                       multistart_result=ms, conjecture=conjecture,
                       conjectured_matrix=matrix, conjectured_loglik=loglik,
                       conjectured_residual=float(residual))


# ---------------------------------------------------------------------------
# the named checks behind `verify --lemma` and certify

F3_RESOLUTION = 100


def _cases_report(name: str, cases: list, line) -> CheckResult:
    """Passed when every case passed, with line(case) for each case as
    the text and the {"lemma", "cases", "passed"} envelope as the data."""
    passed = all(case["passed"] for case in cases)
    return CheckResult(name, passed, "\n".join(line(case) for case in cases),
                       {"lemma": name, "cases": cases, "passed": passed})


def _pass_fail_line(case: dict) -> str:
    return f"{case['pattern']}: {'pass' if case['passed'] else 'fail'}"


def _candidate_report(name: str, s: Number, t: Number, cands, case,
                      line=_pass_fail_line) -> CheckResult:
    """One case per n = 4 candidate at (s, t), cands or else enumerate_n4:
    its sign pattern, then the fields of case(candidate)."""
    cases = [{"pattern": c.pattern.signs, **case(c)}
             for c in (enumerate_n4(s, t) if cands is None else cands)]
    return _cases_report(name, cases, line)


def _bounds_lemma(s: Number, t: Number, cands=None) -> CheckResult:
    """a_1^2 <= 1/2 and a_1 a_2 = a_1 b_2 in [0, 1/5] at each candidate,
    read exactly off its products (b = a at a symmetric candidate)."""
    def case(cand: Candidate) -> dict:
        a1_sq, a1_a2 = cand.products()[0][:2]
        mixed = 0 <= a1_a2 <= Fraction(1, 5)
        checks = [{"name": name, "passed": ok, "detail": f"value {value}"}
                  for name, value, ok in (("a1_sq", a1_sq, a1_sq <= Fraction(1, 2)),
                                          ("a1_a2", a1_a2, mixed),
                                          ("a1_b2", a1_a2, mixed))]
        return {"checks": checks, "passed": all(c["passed"] for c in checks)}

    return _candidate_report("bounds", s, t, cands, case)


def _order_lemma(s: Number, t: Number, cands=None) -> CheckResult:
    """sign_order_exact on each candidate's exact products (b = a)."""
    return _candidate_report("order", s, t, cands,
                             lambda cand: sign_order_exact(cand.products()).to_json_dict())


def _fpoly_lemma(s: Number, t: Number, cands=None) -> CheckResult:
    def case(cand: Candidate) -> dict:
        report = f_polynomial(cand.point(), rho=float(cand.s) / float(cand.t))
        return {"passed": report.passed, **report.to_json_dict()}

    return _candidate_report(
        "fpoly", s, t, cands, case,
        "{pattern}: degree {degree}, zero low-order coefficients, "
        "coordinates are roots: {coordinates_are_roots}".format_map)


def _f1_lemma(s: Number, t: Number, cands=None) -> CheckResult:
    cases = []
    for (x, y), expected in [((Fraction(0), Fraction(0)), Fraction(0)),
                             ((Fraction(1, 5), Fraction(1, 5)), Fraction(1, 25)),
                             ((Fraction(1, 15), Fraction(1, 15)), Fraction(-1, 75))]:
        value = f1_eval(x, y)
        cases.append({"x": str(x), "y": str(y), "value": str(value),
                      "expected": str(expected), "passed": value == expected})
    return _cases_report("f1", cases,
                         "f1({x}, {y}) = {value} (expected {expected})".format_map)


def _f3_lemma(s: Number, t: Number, cands=None) -> CheckResult:
    scan = f3_region_scan(F3_RESOLUTION)
    passed = scan.below_reference_bound
    text = (f"grid max {scan.max_value:.9g} at {scan.argmax} over "
            f"{scan.n_points} points; bound -549/500 = -1.098: "
            f"{'below' if passed else 'NOT below'}")
    return CheckResult("f3", passed, text, {"lemma": "f3", **scan.to_json_dict()})


def _factor_lemma(s: Number, t: Number, cands=None) -> CheckResult:
    report = lemma_a2_factorization()
    text = (f"remainder zero: {report.remainder_zero}; cofactor vs the explicit "
            f"17-term polynomial: {report.cofactor_constant}")
    return CheckResult("factor", report.remainder_zero, text,
                       {"lemma": "factor", **report.to_json_dict()})


def _tailpair_lemma(s: Number, t: Number, cands=None) -> CheckResult:
    cases = []
    for (x, y), expected in [
            ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))),
            ((Fraction(6, 5), Fraction(6, 5)), (Fraction(4, 5), Fraction(4, 5))),
            ((Fraction(16, 15), Fraction(16, 15)), (Fraction(16, 15), Fraction(4, 5)))]:
        got = tail_pair_solve(x, y)
        cases.append({"A1": str(x), "A2": str(y), "A3": str(got[0]),
                      "A4": str(got[1]), "passed": got == expected})
    return _cases_report("tailpair", cases,
                         "tail({A1}, {A2}) = ({A3}, {A4})".format_map)


def _ratio_two(name: str, check):
    """check(s, t, cands) at weight ratio 2, and a skip (passed None) elsewhere."""
    def gated(s: Number, t: Number, cands=None) -> CheckResult:
        if not bounds_established(s, t):
            return CheckResult(name, None, "established only for weight ratio 2")
        return check(s, t, cands)

    return gated


# Every check is called as check(s, t, cands=None) and returns a
# CheckResult. bounds, order and fpoly run over the four n = 4 candidates
# at (s, t), cands (certify's list) or else enumerate_n4(s, t); f3 scans at
# F3_RESOLUTION, and f1, factor and tailpair take no input. order and
# fpoly run at any t < s; the rest skip off weight ratio 2.
LEMMAS = {
    "bounds": _ratio_two("bounds", _bounds_lemma),
    "order": _order_lemma,
    "fpoly": _fpoly_lemma,
    "f1": _ratio_two("f1", _f1_lemma),
    "f3": _ratio_two("f3", _f3_lemma),
    "factor": _ratio_two("factor", _factor_lemma),
    "tailpair": _ratio_two("tailpair", _tailpair_lemma),
}

# The LEMMAS steps certify runs at n = 4. f3 and fpoly stay out: they
# rest on float grids and eigenvalues, so they are evidence, not proof.
CERTIFY_STEPS = ("order", "bounds", "factor", "f1", "tailpair")
