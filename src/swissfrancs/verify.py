"""Mechanized checks of the facts behind the global-maximum certificate.

Each operation here turns one supporting fact into an executable check:
margin and bound inequalities at canonical points, sign and order
agreement between the two parametrizing vectors, the root structure of
the degree-six numerator attached to symmetric stationary points, the
exact divisibility that forces a2 = b2, the negativity scan of its
17-term cofactor over the feasible box, and the tail-pair quadratic.
LEMMAS is the one registry of these checks: each entry is called as
check(s, t) and returns a CheckResult. `swissfrancs verify --lemma NAME`
prints one entry, and certify() runs the steps named in CERTIFY_STEPS
between its exact candidate comparison and an independent multistart
search to reach a machine-checkable verdict.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .candidates import (Candidate, block_matrix, block_point,
                         candidate_lines, compare_candidates, corner_matrix,
                         corner_point, enumerate_n4)
from .core import (Convention, Number, ProbMatrix, WeightTable,
                   convert_convention, log_likelihood)
from .polys import A1, A2, B2, Poly1, Poly3, greedy_multiset_match
from .ranktwo import (RankTwoPoint, reciprocal_residual_exact,
                      stationarity_residual)
from .solvers import MultistartResult, SolverConfig, multistart

BOUND_TOL = 1e-12
DOMINANCE_TOL = 1e-8
STATIONARY_TOL = 1e-10

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

    Works for exact rationals, floats, and polynomial-valued arguments.
    """
    return ((20 * a1 ** 4 * b2 ** 2 + 15 * a1 ** 3 * b2 + 3 * a1 ** 2 * b2 ** 2
             + 2 * a1 * b2 - 4 * b2 ** 2) * a2 ** 2
            + (3 * a1 ** 4 * b2 + 15 * a1 ** 3 * b2 ** 2 + 2 * a1 ** 3
               + 10 * a1 ** 2 * b2 + 2 * a1 * b2 ** 2 - 3 * a1 - b2) * a2
            - 4 * a1 ** 4 + 2 * a1 ** 3 * b2 - a1 ** 2 - 3 * a1 * b2 - 2)


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


def _is_canonical(pt: RankTwoPoint) -> bool:
    a, b = pt.arrays()
    sorted_desc = all(a[i] >= a[i + 1] - 1e-12 for i in range(pt.n - 1))
    head_equal = abs(a[0] - b[0]) <= 1e-9 * max(1.0, abs(a[0]))
    return sorted_desc and head_equal and a[0] > 0


def bounds_established(s: Number, t: Number) -> bool:
    """Whether s/t = 2, the one weight ratio at which the bounds, f1,
    factorization, f3 and tail-pair facts are established."""
    return Fraction(s) / Fraction(t) == 2


def check_bounds(pt: RankTwoPoint) -> list:
    """Bound checks valid at canonical stationary points of the weight
    ratio 2 problem: a_1^2 <= 1/2 and the mixed products a_1 a_2,
    a_1 b_2 inside [0, 1/5], all up to 1e-12 slack."""
    if not _is_canonical(pt):
        raise ValueError("check_bounds requires a canonicalized point")
    a, b = pt.arrays()
    items = [
        ("a1_sq", float(a[0] * a[0]), a[0] * a[0] <= 0.5 + BOUND_TOL),
        ("a1_a2", float(a[0] * a[1]),
         -BOUND_TOL <= a[0] * a[1] <= 0.2 + BOUND_TOL),
        ("a1_b2", float(a[0] * b[1]),
         -BOUND_TOL <= a[0] * b[1] <= 0.2 + BOUND_TOL),
    ]
    return [CheckResult(name=name, passed=bool(ok), detail=f"value {value!r}")
            for name, value, ok in items]


@dataclass(frozen=True)
class SignOrderReport:
    passed: bool
    witness: Optional[tuple]

    def to_json_dict(self) -> dict:
        return {"passed": self.passed,
                "witness": list(self.witness) if self.witness else None}


def sign_order_check(pt: RankTwoPoint, tol: float = 1e-9) -> SignOrderReport:
    """Check a_i b_i >= 0 and (a_i - a_j)(b_i - b_j) >= 0 up to tol.

    These hold at every stationary point when the diagonal weight
    dominates; a failure returns the violating index or pair.
    """
    a, b = pt.arrays()
    for i in range(pt.n):
        if a[i] * b[i] < -tol:
            return SignOrderReport(passed=False, witness=("sign", i))
    for i in range(pt.n):
        for j in range(i + 1, pt.n):
            if (a[i] - a[j]) * (b[i] - b[j]) < -tol:
                return SignOrderReport(passed=False, witness=("order", i, j))
    return SignOrderReport(passed=True, witness=None)


# ---------------------------------------------------------------------------
# the degree-six numerator


@dataclass(frozen=True)
class FPolyReport:
    poly: Poly1
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
        return {"coefficients": [float(c) for c in self.poly.coeffs],
                "degree": self.degree,
                "constant": self.constant, "linear": self.linear,
                "roots": [[r.real, r.imag] for r in self.roots],
                "reference": list(self.reference),
                "degree_six": self.degree_six,
                "multiset_matched": self.multiset_matched,
                "coordinates_are_roots": self.coordinates_are_roots,
                "function_zeros_in_reference": self.function_zeros_in_reference}


def f_polynomial(pt: RankTwoPoint, rho: float = 2.0) -> FPolyReport:
    """Numerator of the stationarity function
    F(x) = sum_i 1/(1 + a_i x) + (rho - 1)/(1 + x^2) - (n + rho - 1)
    expanded over the formal product of all denominators.

    At a symmetric stationary point every coordinate a_k and 0 (doubly)
    is a root; the constant and linear coefficients vanish with the zero
    sum. Repeated coordinates shrink the actual degree and leave
    uncancelled pole positions among the numerator roots, so the report
    distinguishes roots of the numerator from zeros of F itself.
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
    e1 = a.sum()
    e2 = sum(a[i] * a[j] for i in range(4) for j in range(i + 1, 4))
    e3 = sum(a[i] * a[j] * a[k] for i in range(4) for j in range(i + 1, 4)
             for k in range(j + 1, 4))
    e4 = a[0] * a[1] * a[2] * a[3]
    K = 4 + rho - 1
    coeffs = [0.0,
              -e1,
              -(2 * e2 + (rho - 1)),
              -3 * e3 + (3 - K) * e1,
              -4 * e4 + (2 - K) * e2,
              (1 - K) * e3,
              -K * e4]
    poly = Poly1(coeffs)
    trimmed = poly.trimmed()
    roots = tuple(trimmed.roots())
    reference = tuple(sorted(a)) + (0.0, 0.0)
    scale = max(abs(c) for c in coeffs) or 1.0
    coords_are_roots = all(abs(complex(trimmed(x))) <= 1e-9 * scale for x in a)

    def denominator(x: complex) -> complex:
        value = 1.0 + x * x
        for ai in a:
            value *= 1.0 + ai * x
        return value

    zeros_ok = True
    for r in roots:
        if abs(denominator(r)) <= 1e-8:
            continue                      # uncancelled pole artifact, not a zero of F
        if abs(r.imag) > 1e-8 or min(abs(r.real - v) for v in reference) > 1e-8:
            zeros_ok = False
    return FPolyReport(poly=poly, degree=trimmed.degree,
                       constant=float(coeffs[0]), linear=float(coeffs[1]),
                       roots=roots, reference=reference,
                       degree_six=trimmed.degree == 6,
                       multiset_matched=greedy_multiset_match(roots, reference),
                       coordinates_are_roots=coords_are_roots,
                       function_zeros_in_reference=zeros_ok)


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
    threads: int

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


def worker_count(explicit: Optional[int] = None) -> int:
    if explicit is not None and explicit > 0:
        return explicit
    env = os.environ.get("RANKTWO_THREADS")
    if env:
        try:
            value = int(env)
            if value > 0:
                return value
        except ValueError:
            pass
    return min(8, os.cpu_count() or 1)


def f3_region_scan(resolution: int, threads: Optional[int] = None) -> ScanResult:
    """Grid scan of the 17-term cofactor over the bounded feasible box
    {0 < a1 <= 1/sqrt(2), 0 <= a2, b2 <= min(a1, 1/(5 a1))}.

    The a1 slices are partitioned across worker threads; the reduction is
    a deterministic maximum with ties resolved toward the lexicographically
    first grid index. The maximum must come out negative.
    """
    if resolution < 10:
        raise ValueError("resolution must be at least 10")
    a1_values = [float(a1) for a1 in
                 np.linspace(0.0, 1.0 / math.sqrt(2), resolution + 1)[1:]]
    workers = worker_count(threads)

    def slice_max(a1: float):
        grid = np.linspace(0.0, min(a1, 1.0 / (5.0 * a1)), resolution)
        values = f3_eval(a1, grid[:, None], grid[None, :])
        i, j = divmod(int(np.argmax(values)), resolution)
        return float(values[i, j]), (a1, float(grid[i]), float(grid[j]))

    if workers == 1:
        results = [slice_max(a1) for a1 in a1_values]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(slice_max, a1_values))
    best_value, best_arg = results[0]
    for value, arg in results[1:]:
        if value > best_value:
            best_value, best_arg = value, arg
    if best_value >= 0:
        raise RuntimeError(f"scan found a nonnegative value {best_value!r} "
                           f"at {best_arg}")
    return ScanResult(max_value=best_value, argmax=best_arg,
                      resolution=resolution, n_points=resolution ** 3,
                      threads=workers)


# ---------------------------------------------------------------------------
# the certificate


@dataclass(frozen=True)
class Certificate:
    n: int
    s: Number
    t: Number
    verdict: str
    checks: tuple
    multistart_result: MultistartResult
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
               "multistart": self.multistart_result.to_json_dict()}
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
        lines.append(f"multistart: best log L = "
                     f"{self.multistart_result.best.loglik:.17g} over "
                     f"{self.multistart_result.config.starts} starts "
                     f"(seed {self.multistart_result.config.seed}, "
                     f"{len(self.multistart_result.clusters)} clusters)")
        for check in self.checks:
            status = ("PASS" if check.passed else
                      "SKIP" if check.passed is None else "FAIL")
            detail = check.detail.replace("\n", "\n      ")
            lines.append(f"  [{status}] {check.name}: {detail}")
        return "\n".join(lines)


def _exact_margin_check(matrix: ProbMatrix) -> bool:
    n = matrix.n
    rows = [sum(row) for row in matrix.entries]
    cols = [sum(matrix.entries[i][j] for i in range(n)) for j in range(n)]
    return all(r == n for r in rows) and all(c == n for c in cols)


def _rank_one_deviation(matrix: ProbMatrix) -> float:
    arr = matrix.as_array() - 1.0
    sing = np.linalg.svd(arr, compute_uv=False)
    if sing[0] == 0:
        return 0.0
    return float(sing[1] / sing[0])


def certify(n: int, s: Number, t: Number, cfg: SolverConfig) -> Certificate:
    """Assemble the certificate for weights (s, t) on n x n matrices.

    For n = 4 with t < s the four candidates are enumerated and compared
    exactly, the winner is checked for exact stationarity and margins, the
    registry checks named in CERTIFY_STEPS run at (s, t), and an
    independent multistart search must not beat the winner; that yields
    CERTIFIED_CANDIDATE_MAX. A skipped step does not block that verdict.
    All other shapes compare the conjectured block or corner matrix
    against multistart and can reach at most SUPPORTED.
    """
    if n < 2:
        raise ValueError("certificates need n >= 2")
    if s <= 0 or t <= 0:
        raise ValueError("weights must be positive")
    weights = WeightTable.symmetric(n, s, t)
    ms = multistart(weights, cfg)
    checks = []

    if n == 4 and t < s:
        cands = tuple(enumerate_n4(s, t))
        winner, strict, method = compare_candidates(cands)
        checks.append(CheckResult("exact_ordering", strict, method))
        residual = reciprocal_residual_exact(winner.products(),
                                             Fraction(s) / Fraction(t))
        checks.append(CheckResult(
            "exact_stationarity", all(r == 0 for r in residual),
            "reciprocal residual identically zero in rational arithmetic"))
        checks.append(CheckResult("margins", _exact_margin_check(winner.matrix),
                                  "row and column sums equal n exactly"))
        checks.extend(LEMMAS[name](s, t, cands) for name in CERTIFY_STEPS)
        dominance = bool(winner.loglik >= ms.best.loglik - DOMINANCE_TOL)
        checks.append(CheckResult(
            "multistart_dominance", dominance,
            f"winner log L {winner.loglik:.17g} vs search best "
            f"{ms.best.loglik:.17g}"))
        decided = [c.passed for c in checks if c.passed is not None]
        verdict = VERDICT_CERTIFIED if all(decided) else VERDICT_INCONCLUSIVE
        return Certificate(n=n, s=s, t=t, verdict=verdict, checks=tuple(checks),
                           multistart_result=ms, candidates=cands, winner=winner)

    if t < s:
        conjecture = "block"
        matrix = block_matrix(n, s, t)
        point = block_point(n, s, t)
    else:
        conjecture = "corner"
        matrix = corner_matrix(n, s, t)
        point = corner_point(n, s, t)
    nsq = convert_convention(matrix, Convention.SUM_NSQ)
    loglik = log_likelihood(nsq, weights)
    residual = float(np.abs(stationarity_residual(
        point, float(s) / float(t))).max()) if not point.is_zero() else 0.0
    checks.append(CheckResult("stationarity", bool(residual < STATIONARY_TOL),
                              f"residual {residual:.3e}"))
    checks.append(CheckResult("margins", _exact_margin_check(nsq),
                              "row and column sums equal n exactly"))
    deviation = _rank_one_deviation(nsq)
    checks.append(CheckResult("rank", bool(deviation <= 1e-12),
                              f"relative second singular value {deviation:.3e}"))
    dominance = bool(loglik >= ms.best.loglik - DOMINANCE_TOL)
    checks.append(CheckResult(
        "multistart_dominance", dominance,
        f"conjectured log L {loglik:.17g} vs search best {ms.best.loglik:.17g}"))
    verdict = VERDICT_SUPPORTED if all(
        c.passed for c in checks if c.passed is not None) else VERDICT_INCONCLUSIVE
    return Certificate(n=n, s=s, t=t, verdict=verdict, checks=tuple(checks),
                       multistart_result=ms, conjecture=conjecture,
                       conjectured_matrix=matrix, conjectured_loglik=loglik,
                       conjectured_residual=residual)


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
    def case(cand: Candidate) -> dict:
        checks = check_bounds(cand.point())
        return {"checks": [c.to_json_dict() for c in checks],
                "passed": all(c.passed for c in checks)}

    return _candidate_report("bounds", s, t, cands, case)


def _order_lemma(s: Number, t: Number, cands=None) -> CheckResult:
    return _candidate_report("order", s, t, cands,
                             lambda cand: sign_order_check(cand.point()).to_json_dict())


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
