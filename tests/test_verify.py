"""The lemma checks and the certificate assembly.

The factorization machinery is cross-checked against sympy, which plays
the independent-oracle role for the exact polynomial algebra.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from swissfrancs.candidates import SignPattern, enumerate_n4
from swissfrancs.ranktwo import RankTwoPoint
from swissfrancs.solvers import SolverConfig
from swissfrancs import verify
from swissfrancs.verify import (LEMMAS, VERDICT_CERTIFIED,
                                VERDICT_INCONCLUSIVE, VERDICT_SUPPORTED,
                                CheckResult, certify, check_bounds,
                                cross_equation_poly, f1_eval, f3_eval,
                                f3_region_scan, f_polynomial,
                                lemma_a2_factorization, reference_f3_poly,
                                sign_order_check, tail_pair_solve)

F = Fraction
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


class TestRegionScan:
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

    def test_thread_override(self):
        one = f3_region_scan(12, threads=1)
        four = f3_region_scan(12, threads=4)
        assert one.max_value == four.max_value
        assert one.argmax == four.argmax

    def test_thread_env_cap(self, monkeypatch):
        monkeypatch.setenv("RANKTWO_THREADS", "3")
        assert f3_region_scan(12).threads == 3
        monkeypatch.setenv("RANKTWO_THREADS", "not-a-number")
        assert f3_region_scan(12).threads >= 1


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

    def test_errors(self):
        with pytest.raises(ValueError):
            tail_pair_solve(F(0), F(1))
        with pytest.raises(ValueError, match="positive stationary tail"):
            tail_pair_solve(F(2), F(2))
        with pytest.raises(ValueError, match="discriminant"):
            tail_pair_solve(F(3, 2), F(149, 100))


class TestBounds:
    def test_block_point_sits_on_boundary(self):
        checks = check_bounds(CANDS[SignPattern.PPNN].point())
        assert all(c.passed for c in checks)

    def test_three_one_point(self):
        checks = check_bounds(CANDS[SignPattern.PPPN].point())
        assert all(c.passed for c in checks)

    def test_constructed_violation(self):
        pt = RankTwoPoint.symmetric([1.0, -1 / 3, -1 / 3, -1 / 3])
        checks = {c.name: c for c in check_bounds(pt)}
        assert not checks["a1_sq"].passed

    def test_non_canonical_rejected(self):
        pt = RankTwoPoint.of([-0.3, 0.1, 0.1, 0.1], [-0.3, 0.1, 0.1, 0.1])
        with pytest.raises(ValueError, match="canonical"):
            check_bounds(pt)


class TestSignOrder:
    def test_symmetric_point_passes(self):
        assert sign_order_check(CANDS[SignPattern.PPNN].point()).passed

    def test_constructed_violation(self):
        pt = RankTwoPoint.of([1.0, -1.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0])
        report = sign_order_check(pt)
        assert not report.passed
        assert report.witness[1] == 0


class TestFPolynomial:
    def test_structure_at_candidates(self):
        # expected degrees computed by expanding the formal numerator:
        # repeated coordinates drop the top coefficients for the two
        # zero-bearing patterns
        expected_degree = {SignPattern.PPPN: 6, SignPattern.PPNN: 6,
                           SignPattern.PPZN: 5, SignPattern.PZZN: 4}
        for pattern, cand in CANDS.items():
            report = f_polynomial(cand.point())
            assert report.constant == 0.0
            assert abs(report.linear) < 1e-12
            assert report.degree == expected_degree[pattern]
            assert report.coordinates_are_roots
            assert report.function_zeros_in_reference
            assert report.passed

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
            f_polynomial(RankTwoPoint.symmetric([0.0] * 4))

    def test_asymmetric_point_rejected(self):
        pt = RankTwoPoint.of([0.2, 0.2, -0.2, -0.2], [0.25, 0.25, -0.25, -0.25])
        with pytest.raises(ValueError, match="symmetric"):
            f_polynomial(pt)

    def test_non_stationary_rejected(self):
        with pytest.raises(ValueError, match="stationary"):
            f_polynomial(RankTwoPoint.symmetric([0.3, 0.1, -0.1, -0.3]))


class TestLemmas:
    def test_every_entry_returns_a_check_result(self):
        for name, check in LEMMAS.items():
            result = check(2, 1)
            assert isinstance(result, CheckResult)
            assert result.name == name
            assert result.passed is True
            assert result.data["lemma"] == name


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
                                           (F(5, 2), "50-digit log comparison")],
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

    def test_input_validation(self):
        with pytest.raises(ValueError):
            certify(1, 2, 1, SolverConfig(starts=5))
        with pytest.raises(ValueError):
            certify(4, 0, 1, SolverConfig(starts=5))

    def test_verdict_stable_across_seeds(self):
        for seed in range(10):
            cert = certify(4, 2, 1, SolverConfig(starts=25, seed=seed))
            assert cert.verdict == VERDICT_CERTIFIED
