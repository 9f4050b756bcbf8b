"""Closed-form candidates and the conjectured matrices for general n.

The alpha^2 formulas are cross-checked against an independent bisection
oracle on the reciprocal row equations, pattern by pattern.
"""

import math
import sys
import threading
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv

from swissfrancs.candidates import (EXACT_EXPONENT_MAX, SignPattern,
                                    _levels, _member_point, block_matrix,
                                    compare_candidates, corner_matrix,
                                    enumerate_n4, global_candidate,
                                    has_exact_likelihood)
from swissfrancs.core import Convention, convert_convention
from swissfrancs.ranktwo import (reciprocal_residual_exact,
                                 stationarity_residual, to_matrix)

F = Fraction


def row_equation(coeffs, row, x, rho):
    """Reciprocal equation of one row at scale x = alpha^2, minus target."""
    ci = coeffs[row]
    total = sum(1.0 / (1.0 + ci * cj * x) for cj in coeffs)
    total += (rho - 1.0) / (1.0 + ci * ci * x)
    return total - (4 + rho - 1.0)


def bisect_root(func, lo, hi, iters=200):
    flo = func(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = func(mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


ORACLE_WEIGHTS = [(2, 1), (3, 1), (5, 2), (7, 1), (4, 3), (9, 4)]


class TestClosedForms:
    @pytest.mark.parametrize("s,t", ORACLE_WEIGHTS)
    @pytest.mark.parametrize("pattern", list(SignPattern))
    def test_alpha_sq_matches_bisection_oracle(self, pattern, s, t):
        cands = {c.pattern: c for c in enumerate_n4(s, t)}
        cand = cands[pattern]
        rho = s / t
        coeffs = _levels(*pattern.value)
        # the positive root of the first-row equation, found independently;
        # the bracket stops just short of the feasibility pole
        upper = 0.999 / max(abs(coeffs[0] * c) for c in coeffs)
        root = bisect_root(lambda x: row_equation(coeffs, 0, x, rho),
                           1e-9, upper)
        assert float(cand.alpha_sq) == pytest.approx(root, abs=1e-10)
        # the last-row equation must agree at the same scale
        assert row_equation(coeffs, 3, float(cand.alpha_sq), rho) == \
            pytest.approx(0.0, abs=1e-12)

    def test_two_one_values(self):
        cands = {c.pattern: c for c in enumerate_n4(2, 1)}
        assert cands[SignPattern.PPPN].alpha_sq == F(1, 15)
        assert cands[SignPattern.PPNN].alpha_sq == F(1, 5)
        assert cands[SignPattern.PPZN].alpha_sq == F(1, 8)
        assert cands[SignPattern.PZZN].alpha_sq == F(1, 3)

    def test_two_one_matrices(self):
        cands = {c.pattern: c for c in enumerate_n4(2, 1)}
        expected = {
            SignPattern.PPPN: [[F(16, 15)] * 3 + [F(4, 5)]] * 3
            + [[F(4, 5)] * 3 + [F(8, 5)]],
            SignPattern.PPNN: [[F(6, 5), F(6, 5), F(4, 5), F(4, 5)],
                               [F(6, 5), F(6, 5), F(4, 5), F(4, 5)],
                               [F(4, 5), F(4, 5), F(6, 5), F(6, 5)],
                               [F(4, 5), F(4, 5), F(6, 5), F(6, 5)]],
            SignPattern.PPZN: [[F(9, 8), F(9, 8), F(1), F(3, 4)],
                               [F(9, 8), F(9, 8), F(1), F(3, 4)],
                               [F(1), F(1), F(1), F(1)],
                               [F(3, 4), F(3, 4), F(1), F(3, 2)]],
            SignPattern.PZZN: [[F(4, 3), F(1), F(1), F(2, 3)],
                               [F(1), F(1), F(1), F(1)],
                               [F(1), F(1), F(1), F(1)],
                               [F(2, 3), F(1), F(1), F(4, 3)]],
        }
        for pattern, rows in expected.items():
            assert cands[pattern].matrix.entries == tuple(tuple(r) for r in rows)

    def test_three_one_block_entries(self):
        cand = {c.pattern: c for c in enumerate_n4(3, 1)}[SignPattern.PPNN]
        assert cand.matrix.entries[0][0] == F(4, 3)
        assert cand.matrix.entries[0][2] == F(2, 3)

    def test_near_equal_weights_collapse_toward_flat(self):
        cands = enumerate_n4(F(1001, 1000), 1)
        assert all(c.alpha_sq < F(1, 1000) for c in cands)

    def test_equal_weights_rejected(self):
        with pytest.raises(ValueError, match="0 < t < s"):
            enumerate_n4(1, 1)
        with pytest.raises(ValueError, match="0 < t < s"):
            enumerate_n4(1, 2)

    @pytest.mark.parametrize("s,t", ORACLE_WEIGHTS)
    def test_exact_residuals_zero(self, s, t):
        for cand in enumerate_n4(s, t):
            residual = reciprocal_residual_exact(cand.products(), F(s, t))
            assert all(r == 0 for r in residual)
            # float gradient form agrees
            grad = stationarity_residual(cand.point(), s / t)
            assert np.abs(grad).max() < 1e-12

    def test_matrix_matches_point(self):
        for cand in enumerate_n4(2, 1):
            rebuilt = to_matrix(cand.point()).as_array()
            assert np.abs(rebuilt - cand.matrix.as_array()).max() < 1e-14


class TestGlobalCandidate:
    def test_two_one_winner(self):
        assert global_candidate(2, 1).pattern is SignPattern.PPNN

    @pytest.mark.parametrize("s,t", [(3, 1), (5, 2), (4, 3), (7, 1)])
    def test_integer_weights_winner(self, s, t):
        cands = enumerate_n4(s, t)
        winner = global_candidate(s, t, cands)
        assert winner.pattern is SignPattern.PPNN
        assert all(c.likelihood < winner.likelihood
                   for c in cands if c is not winner)

    def test_rational_weights_use_high_precision_logs(self):
        winner = global_candidate(F(5, 2), 1)
        assert winner.pattern is SignPattern.PPNN
        assert winner.likelihood is None

    @pytest.mark.parametrize("s, t, exact", [
        (1000, 1, True), (1001, 1000, True), (2000, 1000, True),
        (2001, 1000, False), (100000, 1, False), (F(5, 2), 1, False)])
    def test_exact_likelihood_bound(self, s, t, exact):
        assert EXACT_EXPONENT_MAX == 20_000
        assert has_exact_likelihood(s, t) is exact

    def test_past_the_bound_compares_by_logs(self):
        cands = enumerate_n4(100000, 1)
        assert all(c.likelihood is None for c in cands)
        winner, strict, method = compare_candidates(cands)
        assert (winner.pattern, strict, method) == \
            (SignPattern.PPNN, True, "50-digit log comparison")

    @pytest.mark.parametrize("s", [2, F(5, 2)])
    def test_tie_raises(self, s):
        cands = enumerate_n4(s, 1)
        with pytest.raises(ValueError, match="tie"):
            global_candidate(s, 1, [cands[1]] + cands[1:])

    @pytest.mark.parametrize("s, t", [(10**22 + 1, 10**22), (10**24 + 1, 10**24),
                                      (10**24 + 2, 10**24), (10**30 + 1, 10**30)])
    def test_near_equal_weights_need_more_digits(self, s, t):
        # the four log L agree to 45 digits or more, so 50-digit ones overlap
        winner, strict, method = compare_candidates(enumerate_n4(s, t))
        assert (winner.pattern, strict, method) == \
            (SignPattern.PPNN, True, "100-digit log comparison")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 60), st.integers(1, 3))
    def test_block_wins_just_above_equal_weights(self, k, d):
        # the largest cubic coefficient kappa as s/t -> 1+ is ++--'s -1/8
        winner, strict, _ = compare_candidates(enumerate_n4(10**k + d, 10**k))
        assert (winner.pattern, strict) == (SignPattern.PPNN, True)

    def test_mpmath_precision_is_untouched(self):
        before = (iv.dps, mpmath.mp.dps)
        cands = enumerate_n4(10**22 + 1, 10**22)
        compare_candidates(cands)
        [c.to_json_dict() for c in cands]
        assert (iv.dps, mpmath.mp.dps) == before

    def test_concurrent_comparisons_agree_with_serial_ones(self):
        # a precision set on mpmath's global contexts would leak between
        # the threads: 30 digits from one, 100 from the other
        printed = enumerate_n4(10001, 10000)
        compared = enumerate_n4(10**22 + 1, 10**22)
        jobs = [lambda: [c.to_json_dict()["loglik_30"] for c in printed],
                lambda: compare_candidates(compared)[1:]]
        expected = [job() for job in jobs]
        got = [[], []]

        def run(k):
            for _ in range(20):
                got[k].append(jobs[k]())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[expected[0]] * 20, [expected[1]] * 20]

    @pytest.mark.parametrize("s, t", [(F(5, 2), 1), (10001, 10000),
                                      (10**8 + 1, 10**8), (10**22 + 1, 10**22)])
    def test_loglik_30_prints_proved_digits(self, s, t):
        cands = enumerate_n4(s, t)
        printed = [c.to_json_dict()["loglik_30"] for c in cands]
        assert printed == [_reference_loglik_30(c) for c in cands]
        assert len(set(printed)) == 4


def _reference_loglik_30(cand) -> str:
    """The candidate's log-likelihood at 400 digits, a plain mpmath.mp sum
    over the 16 cells, printed to 30 significant digits."""
    def mp(x):
        x = F(x)
        return mpmath.mpf(x.numerator) / x.denominator

    with mpmath.workdps(400):
        total = mpmath.fsum(mp(cand.s if i == j else cand.t) * mpmath.log(mp(p))
                            for i, row in enumerate(cand.matrix.entries)
                            for j, p in enumerate(row))
        return mpmath.nstr(total, 30)


class TestBlockMatrix:
    def test_n4_equals_winning_candidate(self):
        block = block_matrix(4, 2, 1)
        cand = global_candidate(2, 1)
        assert block.entries == convert_convention(
            cand.matrix, Convention.SUM_ONE).entries

    def test_n2_structure(self):
        # entries are {s, t}/(2s + 2t) with row sums 1/2
        block = block_matrix(2, 3, 1)
        assert block.entries == ((F(3, 8), F(1, 8)), (F(1, 8), F(3, 8)))
        assert sum(block.entries[0]) == F(1, 2)

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 7])
    def test_sums_and_rank(self, n):
        block = block_matrix(n, 2, 1)
        assert sum(x for row in block.entries for x in row) == 1
        nsq = convert_convention(block, Convention.SUM_NSQ)
        deviation = nsq.as_array() - 1.0
        sing = np.linalg.svd(deviation, compute_uv=False)
        assert sing[1] / sing[0] < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 6])
    def test_block_point_is_stationary(self, n):
        s, t, p, q = 2, 1, (n + 1) // 2, n // 2
        pt = _member_point(p, 0, q, s, t)
        # the closed-form levels of the two blocks
        high = math.sqrt((s - t) * q / (p * (s + (n - 1) * t)))
        low = -math.sqrt((s - t) * p / (q * (s + (n - 1) * t)))
        assert pt.a == pt.b
        np.testing.assert_allclose(pt.a, [high] * p + [low] * q, rtol=0, atol=1e-15)
        assert np.abs(stationarity_residual(pt, s / t)).max() < 1e-10
        nsq = convert_convention(block_matrix(n, 2, 1), Convention.SUM_NSQ)
        assert np.abs(to_matrix(pt).as_array() - nsq.as_array()).max() < 1e-12

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            block_matrix(1, 2, 1)


class TestCornerMatrix:
    def test_equal_weights_give_uniform(self):
        corner = corner_matrix(4, 1, 1)
        assert all(x == F(1, 16) for row in corner.entries for x in row)

    def test_one_two_values(self):
        corner = corner_matrix(4, 1, 2)
        assert corner.entries[0][0] == F(1, 24)
        assert corner.entries[0][3] == F(1, 12)
        assert corner.entries[1][1] == F(1, 16)
        assert sum(x for row in corner.entries for x in row) == 1

    def test_corner_point_products(self):
        pt = _member_point(1, 2, 1, 1, 2)
        a, b = pt.arrays()
        assert a[0] * b[0] == pytest.approx((1 - 2) / (1 + 2), abs=1e-15)
        nsq = convert_convention(corner_matrix(4, 1, 2), Convention.SUM_NSQ)
        assert np.abs(to_matrix(pt).as_array() - nsq.as_array()).max() < 1e-15

    @pytest.mark.parametrize("n,s,t", [(4, 1, 2), (5, 1, 3), (6, 2, 5)])
    def test_corner_point_is_stationary(self, n, s, t):
        pt = _member_point(1, n - 2, 1, s, t)
        a, b = pt.arrays()
        # the closed-form corners: a_1 b_1 = (s - t)/(s + t), the rest zero
        assert a[0] * b[0] == pytest.approx((s - t) / (s + t), abs=1e-15)
        assert (a[0], b[0]) == (-a[-1], -b[-1])
        assert not a[1:-1].any() and not b[1:-1].any()
        assert np.abs(stationarity_residual(pt, s / t)).max() < 1e-12

    def test_diagonal_dominant_weights_rejected(self):
        with pytest.raises(ValueError):
            corner_matrix(4, 2, 1)
