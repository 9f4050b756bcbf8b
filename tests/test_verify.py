"""The lemma checks and the certificate assembly.

The factorization machinery is cross-checked against sympy, which plays
the independent-oracle role for the exact polynomial algebra.
"""

import json
import math
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swissfrancs.candidates import (SignPattern, block_matrix, corner_matrix,
                                    enumerate_n4)
from swissfrancs.core import (Convention, ConvergenceError, ProbMatrix,
                              WeightTable, convert_convention)
from swissfrancs.ranktwo import RankTwoPoint, reciprocal_residual_exact
from swissfrancs.solvers import SolverConfig, multistart
from swissfrancs import verify
from swissfrancs.verify import (LEMMAS, VERDICT_CERTIFIED,
                                VERDICT_INCONCLUSIVE, VERDICT_SUPPORTED,
                                CheckResult, certify, cross_equation_poly,
                                f1_eval, f3_eval, f3_region_scan,
                                f_polynomial, lemma_a2_factorization,
                                matrix_checks, reference_f3_poly,
                                sign_order_check, sign_order_exact,
                                tail_pair_solve)

F = Fraction
GOLDEN = Path(__file__).parent / "golden"
CANDS = {c.pattern: c for c in enumerate_n4(2, 1)}


class TestF1:
    def test_identities(self):
        assert f1_eval(F(0), F(0)) == 0
        assert f1_eval(F(1, 5), F(1, 5)) == F(1, 25)
        assert f1_eval(F(1, 15), F(1, 15)) == F(-1, 75)

    def test_matches_tail_products_at_candidates(self):
        # at a symmetric stationary point, f1 of the two head products
        # equals the product of the tail products
        for cand in CANDS.values():
            prods = cand.products()
            value = f1_eval(prods[0][0], prods[0][1])
            assert value == prods[2][0] * prods[3][0]

    def test_denominator_guard(self):
        # 5 - 2/(1+x) - 1/(1+y) vanishes at x = -1/2, y = 0
        with pytest.raises(ValueError, match="f1"):
            f1_eval(F(-1, 2), F(0))


class TestF3:
    def test_point_values(self):
        assert f3_eval(F(0), F(0), F(0)) == -2
        assert f3_eval(F(1), F(0), F(0)) == -7

    def test_polynomial_term_count(self):
        assert reference_f3_poly().num_terms() == 17

    def test_matches_sympy_expansion(self):
        a1, a2, b2 = sp.symbols("a1 a2 b2")
        expr = sp.expand(f3_eval(a1, a2, b2))
        rng = np.random.default_rng(2)
        for _ in range(25):
            vals = {name: F(int(rng.integers(-10, 11)), int(rng.integers(1, 7)))
                    for name in ("a1", "a2", "b2")}
            ours = f3_eval(vals["a1"], vals["a2"], vals["b2"])
            theirs = expr.subs({a1: sp.Rational(str(vals["a1"])),
                                a2: sp.Rational(str(vals["a2"])),
                                b2: sp.Rational(str(vals["b2"]))})
            assert sp.Rational(str(ours)) == theirs


def _whole_slice_scan(resolution, f):
    """The f3_region_scan maximum and argmax from whole a1 slices, one
    np.argmax per slice and the first strictly larger slice winning."""
    best = None
    for a1 in np.linspace(0.0, 1.0 / math.sqrt(2), resolution + 1)[1:]:
        a1 = float(a1)
        grid = np.linspace(0.0, min(a1, 1.0 / (5.0 * a1)), resolution)
        values = f(a1, grid[:, None], grid[None, :])
        i, j = divmod(int(np.argmax(values)), resolution)
        if best is None or values[i, j] > best[0]:
            best = float(values[i, j]), (a1, float(grid[i]), float(grid[j]))
    return best


class TestRegionScan:
    @pytest.mark.parametrize("resolution", [10, 100, 101, 250])
    def test_row_blocks_match_whole_slices(self, resolution):
        scan = f3_region_scan(resolution)
        assert (scan.max_value, scan.argmax) == _whole_slice_scan(resolution, f3_eval)

    def test_row_blocks_keep_the_first_maximum(self, monkeypatch):
        # a plateau over the rows from 150 on ties across blocks and slices
        def plateau(a1, a2, b2):
            return np.minimum(a2 / min(a1, 1.0 / (5.0 * a1)), 150 / 249) - 1.0 + 0.0 * b2

        monkeypatch.setattr(verify, "f3_eval", plateau)
        scan = f3_region_scan(250)
        expected = _whole_slice_scan(250, plateau)
        assert (scan.max_value, scan.argmax) == expected
        assert expected[1][1] > 0 and expected[1][2] == 0.0

    def test_coarse_scan_negative(self):
        scan = f3_region_scan(10)
        assert scan.max_value < 0

    def test_scan_meets_reference_bound(self):
        scan = f3_region_scan(50)
        assert scan.max_value <= -549 / 500 + 1e-9

    def test_refinement_stays_negative(self):
        previous = None
        for resolution in (10, 20, 40):
            scan = f3_region_scan(resolution)
            assert scan.max_value < 0
            if previous is not None:
                # finer grids cannot drift far below the coarse estimate
                assert scan.max_value >= previous - 0.05
            previous = scan.max_value

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            f3_region_scan(5)

    def test_runs_on_the_calling_thread(self, monkeypatch):
        # no thread is started, whatever RANKTWO_THREADS says
        expected = f3_region_scan(12)
        monkeypatch.setenv("RANKTWO_THREADS", "4")

        def refuse(self):
            raise RuntimeError("f3_region_scan started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        scan = f3_region_scan(12)
        assert (scan.max_value, scan.argmax) == (expected.max_value, expected.argmax)
        assert scan.threads == 1


class TestFactorization:
    def test_remainder_zero_and_unit_cofactor(self):
        report = lemma_a2_factorization()
        assert report.remainder_zero
        assert report.cofactor_constant == 2
        assert report.quotient_at_origin == -4
        assert report.reference_at_origin == -2

    def test_difference_vanishes_on_diagonal(self):
        report = lemma_a2_factorization()
        rng = np.random.default_rng(3)
        for _ in range(100):
            a1 = F(int(rng.integers(-8, 9)), int(rng.integers(1, 9)))
            z = F(int(rng.integers(-8, 9)), int(rng.integers(1, 9)))
            assert report.difference.evaluate(a1, z, z) == 0

    def test_f2_matches_sympy_construction(self):
        a1, a2, b2, x, y = sp.symbols("a1 a2 b2 x y")
        Q = sp.expand(5 * (1 + x) * (1 + y) - 2 * (1 + y) - (1 + x))
        E = sp.expand((2 - x - y) * (1 + x) * (1 + y) + (x + y - 1) * Q)
        E1 = E.subs({x: a1 ** 2, y: a1 * a2})
        Q1 = Q.subs({x: a1 ** 2, y: a1 * a2})
        E2 = E.subs({x: a2 * b2, y: a1 * b2})
        Q2 = Q.subs({x: a2 * b2, y: a1 * b2})
        raw = sp.expand(E1 * b2 ** 2 * Q2 - E2 * a1 ** 2 * Q1)
        content = sp.factor_list(raw)
        ours = cross_equation_poly()
        expr = sp.Integer(0)
        for (i, j, k), coeff in ours.terms.items():
            expr += sp.Rational(coeff.numerator, coeff.denominator) \
                * a1 ** i * a2 ** j * b2 ** k
        quotient = sp.cancel(raw / expr)
        # the primitive form differs from the raw numerator by exactly
        # the stripped monomial content
        assert quotient == -a1 ** 2 * b2
        del content

    def test_quotient_is_twice_reference_poly_by_sympy(self):
        report = lemma_a2_factorization()
        a1, a2, b2 = sp.symbols("a1 a2 b2")
        quotient = sp.Integer(0)
        for (i, j, k), coeff in report.quotient.terms.items():
            quotient += sp.Rational(coeff.numerator, coeff.denominator) \
                * a1 ** i * a2 ** j * b2 ** k
        reference = sp.expand(f3_eval(a1, a2, b2))
        assert sp.expand(quotient - 2 * reference) == 0


class TestTailPair:
    def test_flat_pair(self):
        assert tail_pair_solve(F(1), F(1)) == (F(1), F(1))

    def test_block_pair(self):
        assert tail_pair_solve(F(6, 5), F(6, 5)) == (F(4, 5), F(4, 5))

    def test_three_one_pair(self):
        assert tail_pair_solve(F(16, 15), F(16, 15)) == (F(16, 15), F(4, 5))

    def test_reassembled_constraints_exact(self):
        for lead in (F(6, 5), F(16, 15), F(9, 8)):
            a3, a4 = tail_pair_solve(lead, lead)
            quad = (lead, lead, a3, a4)
            assert sum(quad) == 4
            assert 2 / quad[0] + 1 / quad[1] + 1 / quad[2] + 1 / quad[3] == 5

    def test_float_fallback(self):
        a3, a4 = tail_pair_solve(1.1, 1.05)
        assert a3 >= a4 > 0
        assert a3 + a4 == pytest.approx(4 - 1.1 - 1.05)

    def test_float_inputs_are_exact_rationals(self):
        # the float discriminant at (1.2, 1.2) is -4e-16; that of the
        # binary value of 1.2 is +4.7e-17, and the pair nears (4/5, 4/5)
        a3, a4 = tail_pair_solve(1.2, 1.2)
        assert a3 == pytest.approx(0.8, abs=1e-8) and a4 == pytest.approx(0.8, abs=1e-8)
        # one ulp above, the exact discriminant is -1.9e-16
        with pytest.raises(ValueError, match="discriminant"):
            tail_pair_solve(1.2000000000000002, 1.2000000000000002)
        # a rational square discriminant gives Fraction roots for floats too
        assert [(x, type(x)) for x in tail_pair_solve(1.0, 1.0)] == [(F(1), F)] * 2

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_input_raises(self, bad):
        with pytest.raises(ValueError, match="finite"):
            tail_pair_solve(bad, 1.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            tail_pair_solve(F(0), F(1))
        with pytest.raises(ValueError, match="positive stationary tail"):
            tail_pair_solve(F(2), F(2))
        with pytest.raises(ValueError, match="discriminant"):
            tail_pair_solve(F(3, 2), F(149, 100))


class TestBounds:
    @staticmethod
    def _checks(s, t, pattern):
        """The bound checks of one candidate's case, by name."""
        case = next(c for c in verify._bounds_lemma(s, t).data["cases"]
                    if c["pattern"] == pattern.signs)
        return case, {c["name"]: c for c in case["checks"]}

    def test_block_point_sits_on_boundary(self):
        # a1 a2 = a1 b2 = 1/5 exactly: the closed bound holds with no slack
        case, checks = self._checks(2, 1, SignPattern.PPNN)
        assert case["passed"]
        assert checks["a1_a2"]["detail"] == checks["a1_b2"]["detail"] == "value 1/5"

    def test_three_one_point(self):
        case, checks = self._checks(2, 1, SignPattern.PPPN)
        assert case["passed"]
        assert checks["a1_sq"]["detail"] == "value 1/15"

    def test_constructed_violation(self):
        # at 100:1 the block candidate has a1^2 = a1 a2 = 99/103
        case, checks = self._checks(100, 1, SignPattern.PPNN)
        assert not case["passed"]
        assert checks["a1_sq"] == {"name": "a1_sq", "passed": False,
                                   "detail": "value 99/103"}
        assert not checks["a1_a2"]["passed"] and not checks["a1_b2"]["passed"]
        assert not verify._bounds_lemma(100, 1).passed


class TestSignOrder:
    def test_symmetric_point_passes(self):
        assert sign_order_check(CANDS[SignPattern.PPNN].point()).passed

    def test_constructed_violation(self):
        for a, b, witness in [
                ([1.0, -1.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0], ("sign", 0)),
                # every a_i b_i >= 0, but a falls from 1 to 0 while b rises
                ([1.0, 0.0, 0.0, -1.0], [0.1, 0.5, -0.3, -0.3], ("order", 0, 1))]:
            report = sign_order_check(RankTwoPoint.of(a, b))
            assert not report.passed
            assert report.witness == witness

    def test_exact_table_violation(self):
        # hand-built tables P_ij = a_i b_j in Fractions: the second has
        # every P_ii >= 0, but P_00 - P_01 - P_10 + P_11 = -1/2
        for a, b, witness in [
                ([1, -1, 0, 0], [-1, 1, 0, 0], ("sign", 0)),
                ([1, 0, 0, -1], [F(1, 10), F(6, 10), F(-4, 10), F(-3, 10)],
                 ("order", 0, 1))]:
            report = sign_order_exact([[F(x) * y for y in b] for x in a])
            assert not report.passed
            assert report.witness == witness

    @pytest.mark.parametrize("s, t", [(2, 1), (3, 2), (100, 1), (1001, 1000)])
    def test_exact_agrees_with_the_float_check_on_the_candidates(self, s, t):
        for cand in enumerate_n4(s, t):
            exact = sign_order_exact(cand.products())
            assert exact.passed
            assert exact == sign_order_check(cand.point())


class TestFPolynomial:
    def test_structure_at_candidates(self):
        # expected degrees computed by expanding the formal numerator:
        # repeated coordinates drop the top coefficients for the two
        # zero-bearing patterns
        expected_degree = {SignPattern.PPPN: 6, SignPattern.PPNN: 6,
                           SignPattern.PPZN: 5, SignPattern.PZZN: 4}
        for pattern, cand in CANDS.items():
            report = f_polynomial(cand.point())
            # exactly: x^2 divides the numerator by construction
            assert report.constant == 0.0 and report.linear == 0.0
            assert report.degree == expected_degree[pattern]
            assert report.coordinates_are_roots
            assert report.function_zeros_in_reference
            assert report.passed

    @staticmethod
    def _closed_form(a, rho):
        """The numerator's coefficients, lowest degree first, expanded by
        hand for n = 4 from the elementary symmetric functions of a."""
        e1 = a.sum()
        e2 = sum(a[i] * a[j] for i in range(4) for j in range(i + 1, 4))
        e3 = sum(a[i] * a[j] * a[k] for i in range(4) for j in range(i + 1, 4)
                 for k in range(j + 1, 4))
        e4 = a[0] * a[1] * a[2] * a[3]
        K = 4 + rho - 1
        return [0.0, -e1, -(2 * e2 + (rho - 1)), -3 * e3 + (3 - K) * e1,
                -4 * e4 + (2 - K) * e2, (1 - K) * e3, -K * e4]

    # (passed, degree, degree_six, multiset_matched, coordinates_are_roots,
    # function_zeros_in_reference); the same at every ratio below
    PINNED = {"+++-": (True, 6, True, False, True, True),
              "++--": (True, 6, True, False, True, True),
              "++0-": (True, 5, False, False, True, True),
              "+00-": (True, 4, False, False, True, True)}

    @pytest.mark.parametrize("s, t", [(2, 1), (3, 2), (100, 1), (10001, 10000)])
    def test_coefficients_match_the_closed_form(self, s, t):
        for cand in enumerate_n4(s, t):
            rho = float(cand.s) / float(cand.t)
            report = f_polynomial(cand.point(), rho=rho)
            expected = np.array(self._closed_form(cand.point().arrays()[0], rho))
            # the coefficients stop at the degree, as the JSON has them
            assert len(report.coefficients) == report.degree + 1
            got = np.zeros(7)
            got[:len(report.coefficients)] = report.coefficients
            assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()
            assert (report.passed, report.degree, report.degree_six,
                    report.multiset_matched, report.coordinates_are_roots,
                    report.function_zeros_in_reference) == self.PINNED[cand.pattern.signs]

    def test_block_point_roots(self):
        report = f_polynomial(CANDS[SignPattern.PPNN].point())
        reals = sorted(r.real for r in report.roots)
        a = 1 / math.sqrt(5)
        # zeros of the function at +-a and a double zero at the origin,
        # plus the two uncancelled pole positions +-sqrt(5)
        assert np.allclose(reals, [-math.sqrt(5), -a, 0.0, 0.0, a, math.sqrt(5)],
                           atol=1e-8)

    def test_corner_point_roots(self):
        report = f_polynomial(CANDS[SignPattern.PZZN].point())
        reals = sorted(r.real for r in report.roots)
        a = 1 / math.sqrt(3)
        assert np.allclose(reals, [-a, 0.0, 0.0, a], atol=1e-8)

    def test_zero_point_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            f_polynomial(RankTwoPoint.of([0.0] * 4, [0.0] * 4))

    def test_asymmetric_point_rejected(self):
        pt = RankTwoPoint.of([0.2, 0.2, -0.2, -0.2], [0.25, 0.25, -0.25, -0.25])
        with pytest.raises(ValueError, match="symmetric"):
            f_polynomial(pt)

    def test_non_stationary_rejected(self):
        with pytest.raises(ValueError, match="stationary"):
            a = [0.3, 0.1, -0.1, -0.3]
            f_polynomial(RankTwoPoint.of(a, a))


class TestLemmas:
    def test_every_entry_returns_a_check_result(self):
        for name, check in LEMMAS.items():
            result = check(2, 1)
            assert isinstance(result, CheckResult)
            assert result.name == name
            assert result.passed is True
            assert result.data["lemma"] == name


def _deviation(rows) -> ProbMatrix:
    """The SUM_NSQ matrix J + D of a table D of rationals."""
    return ProbMatrix.of([[1 + F(x) for x in row] for row in rows], Convention.SUM_NSQ)


def _outcome(matrix, rho) -> dict:
    checks, _ = matrix_checks(matrix, rho)
    return {c.name: c.passed for c in checks}


class TestMatrixChecks:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 16),
           st.fractions(F(1001, 1000), 1000, max_denominator=1000),
           st.booleans())
    def test_conjectured_matrices_pass_exactly(self, n, ratio, block):
        # the block matrix at s/t = ratio, or the corner matrix at 1/ratio
        s, t = (ratio, 1) if block else (1, ratio)
        matrix = (block_matrix if block else corner_matrix)(n, s, t)
        checks, residual = matrix_checks(
            convert_convention(matrix, Convention.SUM_NSQ), F(s) / F(t))
        assert [(c.name, c.passed) for c in checks] == [
            ("exact_stationarity", True), ("margins", True), ("rank", True)]
        assert residual == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_flat_matrix_passes(self, n):
        flat = convert_convention(corner_matrix(n, 3, 3), Convention.SUM_NSQ)
        checks, residual = matrix_checks(flat, 1)
        assert all(c.passed for c in checks) and residual == 0
        assert checks[2].detail == "every 2 x 2 minor of P - J vanishes exactly"

    def test_wrong_scale_fails_stationarity_only(self):
        # the ++-- shape with alpha^2 = 1/10 at ratio 2, where it is 1/5
        c = (1, 1, -1, -1)
        matrix = _deviation([[ci * cj * F(1, 10) for cj in c] for ci in c])
        assert _outcome(matrix, 2) == {"exact_stationarity": False,
                                       "margins": True, "rank": True}
        assert reciprocal_residual_exact(
            [[F(x) - 1 for x in row] for row in matrix.entries], 2) == [F(-5, 99)] * 8
        checks, residual = matrix_checks(matrix, 2)
        assert residual == F(-5, 99)
        assert checks[0].detail == "largest reciprocal residual -5/99"

    def test_rank_two_deviation_fails_rank_only(self):
        # (u u^T + v v^T) / 10 is stationary in the reciprocal form at
        # ratio 11/9, with margins n, but has rank two
        u, v = (1, -1, 0, 0), (0, 0, 1, -1)
        matrix = _deviation([[F(ui * uj + vi * vj, 10) for uj, vj in zip(u, v)]
                             for ui, vi in zip(u, v)])
        assert _outcome(matrix, F(11, 9)) == {"exact_stationarity": True,
                                              "margins": True, "rank": False}
        checks, _ = matrix_checks(matrix, F(11, 9))
        assert checks[2].detail == "P - J has a nonzero 2 x 2 minor 1/100"
        # the same blocks behind a zero first row and column: the pivot
        # is the first nonzero entry, not the corner
        u, v = (0, 1, -1, 0, 0), (0, 0, 0, 1, -1)
        padded = _deviation([[F(ui * uj + vi * vj, 10) for uj, vj in zip(u, v)]
                             for ui, vi in zip(u, v)])
        assert _outcome(padded, 2)["rank"] is False

    def test_asymmetric_deviation_fails_stationarity_only(self):
        # D = a b^T with a = (1, -1, 0, 0) / 10 and b = (0, 0, 1, -1):
        # margins n and rank one, but not symmetric, which the detail names
        # ahead of its nonzero reciprocal residual
        a, b = (F(1, 10), F(-1, 10), 0, 0), (0, 0, 1, -1)
        matrix = _deviation([[ai * bj for bj in b] for ai in a])
        assert _outcome(matrix, 2) == {"exact_stationarity": False,
                                       "margins": True, "rank": True}
        checks, _ = matrix_checks(matrix, 2)
        assert checks[0].detail == "P - J is not symmetric"

    def test_unbalanced_margins_fail_margins(self):
        matrix = _deviation([[F(1, 10), 0], [0, F(-1, 10)]])
        assert _outcome(matrix, 2)["margins"] is False


class TestCertify:
    def test_swiss_instance_certified(self):
        cert = certify(4, 2, 1, SolverConfig(starts=40, seed=1))
        assert cert.verdict == VERDICT_CERTIFIED
        assert cert.winner.pattern is SignPattern.PPNN
        assert [c.name for c in cert.checks] == [
            "exact_ordering", "exact_stationarity", "margins", "order",
            "bounds", "factor", "f1", "tailpair", "multistart_dominance"]
        assert all(c.passed is True for c in cert.checks)

    def test_non_ratio_two_skips_bounds(self):
        cert = certify(4, 3, 1, SolverConfig(starts=30, seed=1))
        assert cert.verdict == VERDICT_CERTIFIED
        passed = {c.name: c.passed for c in cert.checks}
        for name in ("bounds", "factor", "f1", "tailpair"):
            assert passed[name] is None, name
        assert passed["order"] is True

    def test_block_support(self):
        cert = certify(5, 2, 1, SolverConfig(starts=30, seed=1))
        assert cert.verdict == VERDICT_SUPPORTED
        assert cert.conjecture == "block"
        assert cert.conjectured_residual < 1e-10

    def test_corner_support(self):
        cert = certify(4, 1, 2, SolverConfig(starts=30, seed=1))
        assert cert.verdict == VERDICT_SUPPORTED
        assert cert.conjecture == "corner"

    def test_thousand_to_one_certified(self):
        # multistart converges near the boundary, and the exact
        # likelihoods there are too long for Python to print
        cert = certify(4, 1000, 1, SolverConfig(starts=1, seed=1))
        assert cert.verdict == VERDICT_CERTIFIED
        assert cert.to_json_dict()["verdict"] == VERDICT_CERTIFIED
        assert VERDICT_CERTIFIED in cert.to_text()

    def test_search_without_a_converged_start_is_inconclusive(self):
        # one Newton iteration leaves the one start short of tol at 1000:1;
        # certify answers instead of raising
        cfg = SolverConfig(starts=1, max_iter=1)
        with pytest.raises(ConvergenceError, match="no multistart run converged"):
            multistart(WeightTable.symmetric(4, 1000, 1), cfg)
        cert = certify(4, 1000, 1, cfg)
        assert cert.verdict == VERDICT_INCONCLUSIVE
        assert cert.multistart_result is None
        dominance = cert.checks[-1]
        assert dominance.name == "multistart_dominance"
        assert dominance.passed is False
        assert dominance.detail == "search failed: no multistart run converged"
        assert json.loads(json.dumps(cert.to_json_dict()))["multistart"] is None
        assert "multistart: no start converged" in cert.to_text()

    def test_thousand_to_one_start_that_stalled_certifies(self):
        # this seed's start ran Newton to its 10,000-iteration cap with the
        # least-squares step; saddle-free Newton climbs from the random
        # draw and converges in 20 iterations, the whole climb counted, far
        # below that cap
        cert = certify(4, 1000, 1, SolverConfig(starts=1, seed=3331072))
        assert cert.verdict == VERDICT_CERTIFIED
        assert cert.multistart_result.reports[0].iterations <= 50

    # the weight range s/t from 1 + 1e-3 to 1e3 and its inverse
    @pytest.mark.parametrize("n, s, t", [
        (n, s, t) for n in (2, 3, 5)
        for s, t in ((1001, 1000), (3, 2), (1, 1), (1000, 1), (1, 1000))])
    def test_answers_across_the_weight_range(self, n, s, t):
        cert = certify(n, s, t, SolverConfig(starts=3, seed=1))
        assert cert.verdict != VERDICT_INCONCLUSIVE \
            or any(c.passed is False for c in cert.checks)
        json.dumps(cert.to_json_dict())
        cert.to_text()

    # a derandomized sweep: n from 2 to 16 and s/t from 1 + 1e-3 to 1000
    # at 3 starts, plus (4, 100, 1) at 10 starts, s = t, the 1000:1
    # starts where Newton with the least-squares step ran to its
    # iteration cap, and ratios from 1e160 to 1.7e308 at 5 starts, where
    # the search overflows
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(2, 16),
           st.fractions(Fraction(1001, 1000), 1000, max_denominator=1000),
           st.just(3), st.just(1))
    @example(4, Fraction(100), 10, 1)
    @example(4, Fraction(1), 3, 1)
    @example(4, Fraction(1000), 1, 3331072)
    @example(2, Fraction(1000), 3, 1)
    @example(3, Fraction(1000), 3, 1)
    @example(4, Fraction(10 ** 160), 5, 1)
    @example(4, Fraction(10 ** 308), 5, 1)
    @example(8, Fraction(10 ** 308), 5, 1)
    @example(4, Fraction(17 * 10 ** 307), 5, 1)
    def test_sweep_answers_or_names_its_reason(self, n, ratio, starts, seed):
        cert = certify(n, ratio.numerator, ratio.denominator,
                       SolverConfig(starts=starts, seed=seed))
        if cert.verdict == VERDICT_INCONCLUSIVE:
            assert any(c.passed is False and c.detail for c in cert.checks)

    # log L, the gradient's norm and the Hessian overflow in the search;
    # the rows stop and the verdict names why
    @pytest.mark.parametrize("n, s", [(4, 10 ** 160), (4, 10 ** 308), (8, 10 ** 308),
                                      (4, 17 * 10 ** 307)])
    def test_extreme_ratios_stop_with_a_reason(self, n, s):
        cert = certify(n, s, 1, SolverConfig(starts=5, seed=1))
        assert cert.verdict == VERDICT_INCONCLUSIVE
        assert [c.detail for c in cert.checks if c.passed is False] == \
            ["search failed: no multistart run converged"]

    def test_near_equal_weights_at_n16_converge_quickly(self):
        # near s = t the maximum is nearly degenerate; Newton after the
        # ascent took 294-995 iterations a start here, saddle-free Newton
        # from the random draw takes 29-45
        cert = certify(16, 1001, 1000, SolverConfig(starts=3, seed=1))
        reports = cert.multistart_result.reports
        assert all(r.converged and r.iterations <= 100 for r in reports)

    def test_hundred_to_one_finds_both_maxima(self):
        cert = certify(4, 100, 1, SolverConfig(starts=10, seed=1))
        assert cert.verdict == VERDICT_CERTIFIED
        assert [c.size for c in cert.multistart_result.clusters] == [8, 2]
        assert {c.representative.classification
                for c in cert.multistart_result.clusters} == {"local_max"}

    def test_search_failure_off_n_four(self, monkeypatch):
        def fail(weights, cfg):
            raise ConvergenceError("no multistart run converged")

        monkeypatch.setattr(verify, "multistart", fail)
        cert = certify(6, 2, 1, SolverConfig(starts=1))
        assert cert.verdict == VERDICT_INCONCLUSIVE
        assert cert.checks[-1].passed is False
        assert cert.to_json_dict()["multistart"] is None

    def test_json_and_text_render(self):
        cert = certify(4, 2, 1, SolverConfig(starts=20, seed=1))
        data = cert.to_json_dict()
        assert data["verdict"] == VERDICT_CERTIFIED
        assert data["winner_sum_one"]["entries"][0][0] == "3/40"
        text = cert.to_text()
        assert "3/40" in text and "PASS" in text
        # a multi-line detail keeps its continuation lines indented
        assert "[PASS] order: +++-: pass\n      ++--: pass" in text

    @pytest.mark.parametrize("s, method", [(2, "exact rational comparison"),
                                           (F(5, 2), "no separation at 1600 digits")],
                             ids=["exact", "log"])
    def test_tied_candidates_are_inconclusive(self, monkeypatch, s, method):
        # the winner listed twice ties the top likelihood
        def tied(s, t):
            cands = enumerate_n4(s, t)
            return [cands[1]] + cands[1:]

        monkeypatch.setattr(verify, "enumerate_n4", tied)
        cert = certify(4, s, 1, SolverConfig(starts=5, seed=1))
        assert cert.verdict == VERDICT_INCONCLUSIVE
        ordering = cert.checks[0]
        assert (ordering.name, ordering.passed, ordering.detail) == \
            ("exact_ordering", False, method)
        assert cert.winner.pattern is SignPattern.PPNN

    def test_near_equal_weights_name_the_block(self):
        cert = certify(4, 10**22 + 1, 10**22, SolverConfig(starts=5, seed=1))
        assert cert.winner.pattern is SignPattern.PPNN
        assert cert.checks[0].detail == "100-digit log comparison"

    def test_float_noise_does_not_certify(self):
        cert = certify(4, 10**22 + 1, 10**22, SolverConfig(starts=5, seed=1))
        assert cert.verdict != VERDICT_CERTIFIED

    # near s = t the gain over the flat matrix, about (s/t - 1)^2 t / 2,
    # falls below the rounding of a float log L: at n = 4 from 1e7 + 1 : 1e7
    # on, and at n = 6 at 1e12 + 1 : 1e12 either way round; at 1e4 + 1 : 1e4
    # it lies well above it
    @pytest.mark.parametrize("n, s, t, verdict", [
        *((4, 10 ** k + 1, 10 ** k, VERDICT_CERTIFIED if k == 4 else VERDICT_INCONCLUSIVE)
          for k in (4, 8, 12, 16, 22)),
        (6, 10 ** 12 + 1, 10 ** 12, VERDICT_INCONCLUSIVE),
        (6, 10 ** 12, 10 ** 12 + 1, VERDICT_INCONCLUSIVE)])
    def test_near_equal_weights_unresolved_by_the_float_search(self, n, s, t, verdict):
        cert = certify(n, s, t, SolverConfig(starts=5, seed=1))
        assert cert.verdict == verdict
        dominance = cert.checks[-1]
        assert dominance.name == "multistart_dominance"
        unresolved = dominance.detail.startswith(
            f"the float search cannot resolve s/t = {Fraction(s, t)}: ")
        assert (dominance.passed, unresolved) == (
            (True, False) if verdict == VERDICT_CERTIFIED else (False, True))

    @pytest.mark.parametrize("s, t", [(2, 1), (3, 2)])
    def test_candidates_built_once(self, monkeypatch, s, t):
        calls = []

        def counted(s, t):
            calls.append((s, t))
            return enumerate_n4(s, t)

        monkeypatch.setattr(verify, "enumerate_n4", counted)
        cert = certify(4, s, t, SolverConfig(starts=5, seed=1))
        assert cert.verdict == VERDICT_CERTIFIED
        assert calls == [(s, t)]

    @pytest.mark.parametrize("n, s, t", [(4, 2, 1), (5, 2, 1), (4, 1, 2),
                                         (3, 2, 1), (7, 3, 2), (16, 2, 1),
                                         (2, 1000, 1), (6, 1, 2), (4, 1, 1)])
    def test_pinned_checks_and_matrix(self, n, s, t):
        # every check but multistart_dominance, whose floats come from
        # lstsq and eigh and can differ in the last bits between BLAS builds
        data = certify(n, s, t, SolverConfig(starts=5, seed=1)).to_json_dict()
        key = "winner_sum_one" if n == 4 and t < s else "conjectured_matrix"
        pinned = {"checks": [c for c in data["checks"]
                             if c["name"] != "multistart_dominance"],
                  key: data[key]}
        golden = json.loads((GOLDEN / "certify_checks.json").read_text())
        assert pinned == golden[f"{n},{s},{t}"]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            certify(1, 2, 1, SolverConfig(starts=5))
        with pytest.raises(ValueError):
            certify(4, 0, 1, SolverConfig(starts=5))

    @pytest.mark.parametrize("n", [4.0, 4.5, True])
    def test_non_integer_side_rejected(self, n):
        # 4.0 and 4.5 used to raise a TypeError from inside numpy
        with pytest.raises(ValueError, match="n must be an integer"):
            certify(n, 2, 1, SolverConfig(starts=5))

    def test_verdict_stable_across_seeds(self):
        for seed in range(10):
            cert = certify(4, 2, 1, SolverConfig(starts=25, seed=seed))
            assert cert.verdict == VERDICT_CERTIFIED
