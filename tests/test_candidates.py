"""Closed-form candidates and the conjectured matrices for general n.

The alpha^2 formulas are cross-checked against an independent bisection
oracle on the reciprocal row equations, pattern by pattern.
"""

from fractions import Fraction

import numpy as np
import pytest

from swissfrancs.candidates import (EXACT_EXPONENT_MAX, SignPattern,
                                    block_matrix, block_point,
                                    compare_candidates, corner_matrix,
                                    corner_point, enumerate_n4,
                                    global_candidate, has_exact_likelihood)
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
        coeffs = pattern.coeffs
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
        pt = block_point(n, 2, 1)
        assert np.abs(stationarity_residual(pt, 2.0)).max() < 1e-10
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
        pt = corner_point(4, 1, 2)
        a, b = pt.arrays()
        assert a[0] * b[0] == pytest.approx((1 - 2) / (1 + 2), abs=1e-15)
        nsq = convert_convention(corner_matrix(4, 1, 2), Convention.SUM_NSQ)
        assert np.abs(to_matrix(pt).as_array() - nsq.as_array()).max() < 1e-15

    @pytest.mark.parametrize("n,s,t", [(4, 1, 2), (5, 1, 3), (6, 2, 5)])
    def test_corner_point_is_stationary(self, n, s, t):
        pt = corner_point(n, s, t)
        assert np.abs(stationarity_residual(pt, s / t)).max() < 1e-12

    def test_diagonal_dominant_weights_rejected(self):
        with pytest.raises(ValueError):
            corner_matrix(4, 2, 1)
