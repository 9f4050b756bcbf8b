"""The rank-two parametrization and its stationarity calculus."""

import math
from fractions import Fraction

import numpy as np
import pytest

from swissfrancs.candidates import _alpha_sq, _levels
from swissfrancs.core import (Convention, FeasibilityError, ProbMatrix,
                              RankTwoError, WeightTable, log_likelihood)
from swissfrancs.ranktwo import (RankTwoPoint, canonicalize, gradient,
                                 hessian, normalize_margins,
                                 reciprocal_residual_exact,
                                 stationarity_residual, to_matrix)
from swissfrancs.solvers import scaled_loglik

F = Fraction
A5 = 1 / math.sqrt(5)
A15 = 1 / math.sqrt(15)

P2_POINT = RankTwoPoint.symmetric([A5, A5, -A5, -A5])
P1_POINT = RankTwoPoint.symmetric([A15, A15, A15, -3 * A15])
P4_POINT = RankTwoPoint.symmetric([1 / math.sqrt(3), 0.0, 0.0, -1 / math.sqrt(3)])


def random_feasible(rng, n=4):
    while True:
        a = rng.uniform(-0.3, 0.3, size=n)
        b = rng.uniform(-0.3, 0.3, size=n)
        a -= a.mean()
        b -= b.mean()
        if (1 + np.outer(b, a)).min() > 0.05:
            return RankTwoPoint.of(a, b)


class TestToMatrix:
    def test_zero_gives_flat(self):
        matrix = to_matrix(RankTwoPoint.symmetric([0.0] * 4))
        assert np.array_equal(matrix.as_array(), np.ones((4, 4)))

    def test_block_point(self):
        matrix = to_matrix(P2_POINT).as_array()
        expected = np.array([[1.2, 1.2, 0.8, 0.8],
                             [1.2, 1.2, 0.8, 0.8],
                             [0.8, 0.8, 1.2, 1.2],
                             [0.8, 0.8, 1.2, 1.2]])
        assert np.allclose(matrix, expected, atol=1e-15)

    def test_three_one_point(self):
        matrix = to_matrix(P1_POINT).as_array()
        assert matrix[0, 0] == pytest.approx(16 / 15, abs=1e-15)
        assert matrix[3, 0] == pytest.approx(4 / 5, abs=1e-15)
        assert matrix[3, 3] == pytest.approx(8 / 5, abs=1e-15)

    def test_margins_always_n(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            pt = random_feasible(rng)
            arr = to_matrix(pt).as_array()
            assert np.abs(arr.sum(axis=0) - 4).max() < 1e-12
            assert np.abs(arr.sum(axis=1) - 4).max() < 1e-12

    def test_infeasible_rejected(self):
        pt = RankTwoPoint.of([1.0, 0.5, -0.5, -1.0], [2.0, 1.0, -1.0, -2.0])
        with pytest.raises(FeasibilityError):
            to_matrix(pt)

    def test_gauge_invariance_bit_stable(self):
        rng = np.random.default_rng(42)
        pt = random_feasible(rng)
        base = to_matrix(pt).as_array()
        a, b = pt.arrays()
        for _ in range(1000):
            c = rng.uniform(0.1, 10.0)
            rescaled = RankTwoPoint.of(c * a, b / c)
            assert np.abs(to_matrix(rescaled).as_array() - base).max() <= 1e-12


class TestResiduals:
    def test_zero_point_any_ratio(self):
        pt = RankTwoPoint.symmetric([0.0] * 4)
        for rho in (0.5, 1.0, 2.0, 7.0):
            assert np.abs(stationarity_residual(pt, rho)).max() == 0.0

    def test_block_point_is_stationary(self):
        assert np.abs(stationarity_residual(P2_POINT, 2.0)).max() <= 1e-12

    def test_perturbed_point_is_not(self):
        a = np.array(P2_POINT.a)
        a[0] += 0.01
        a[3] -= 0.01
        pt = RankTwoPoint.symmetric(a)
        assert np.abs(stationarity_residual(pt, 2.0)).max() > 1e-3

    def test_exact_reciprocal_zero_for_block_products(self):
        # x = 0 is the zero point, stationary at every ratio
        for x in (F(1, 5), F(0)):
            products = [[ci * cj * x for cj in (1, 1, -1, -1)] for ci in (1, 1, -1, -1)]
            residual = reciprocal_residual_exact(products, F(2))
            assert all(r == 0 for r in residual)

    def test_exact_reciprocal_zero_for_corner_products(self):
        x = F(1, 3)
        products = [[ci * cj * x for cj in (1, 0, 0, -1)] for ci in (1, 0, 0, -1)]
        residual = reciprocal_residual_exact(products, F(2))
        assert all(r == 0 for r in residual)

    def test_exact_reciprocal_matches_the_two_pass_formula(self):
        # every cell divided once per row sum and once per column sum,
        # as the residual was first written
        def two_pass(products, rho):
            n = len(products)
            target = n + rho - 1
            rows = [sum(1 / (1 + products[i][j]) for j in range(n))
                    + (rho - 1) / (1 + products[i][i]) - target for i in range(n)]
            cols = [sum(1 / (1 + products[i][j]) for i in range(n))
                    + (rho - 1) / (1 + products[j][j]) - target for j in range(n)]
            return rows + cols

        rng = np.random.default_rng(29)
        for n in (1, 2, 3, 4, 7):
            for _ in range(20):
                products = [[F(int(rng.integers(-90, 300)), int(rng.integers(100, 400)))
                             for _ in range(n)] for _ in range(n)]
                rho = F(int(rng.integers(1, 50)), int(rng.integers(1, 50)))
                assert reciprocal_residual_exact(products, rho) == two_pass(products, rho)

    def test_reciprocal_is_weighted_gradient(self):
        # componentwise, recip_i = -a_i * grad_i and recip_{n+j} = -b_j * grad_{n+j};
        # dyadic a and b make the floats the exact rationals of the product table
        def dyadic(n):
            x = rng.integers(-19, 20, size=n)
            x[-1] = -x[:-1].sum()
            return x / 64.0

        rng = np.random.default_rng(17)
        for rho in (0.5, 2.0, 3.5):
            for _ in range(100):
                n = int(rng.integers(2, 8))
                a, b = dyadic(n), dyadic(n)
                if (1 + np.outer(b, a)).min() <= 0.05:
                    continue
                products = [[F(ai) * F(bj) for bj in b] for ai in a]
                recip = np.array(reciprocal_residual_exact(products, rho), dtype=float)
                grad = gradient(a, b, rho)
                assert np.allclose(recip, -np.concatenate([a, b]) * grad, atol=1e-12)

class TestDerivatives:
    @pytest.mark.parametrize("n", [2, 4, 7])
    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0, 100.0])
    def test_hessian_matches_gradient_differences(self, n, rho):
        rng = np.random.default_rng(n)
        h = 1e-6
        for _ in range(5):
            a, b = random_feasible(rng, n).arrays()
            x = np.concatenate([a, b])
            diffs = np.empty((2 * n, 2 * n))
            for k in range(2 * n):
                step = np.zeros(2 * n)
                step[k] = h
                up, down = x + step, x - step
                diffs[:, k] = (gradient(up[:n], up[n:], rho)
                               - gradient(down[:n], down[n:], rho)) / (2 * h)
            H = hessian(a, b, rho)
            assert np.array_equal(H, H.T)
            assert np.allclose(H, diffs, rtol=1e-6, atol=1e-6 * rho)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_batched_rows_equal_single_calls(self, n):
        # multistart runs all starts as one (K, n) batch and promises each
        # start the bits it gets alone
        rng = np.random.default_rng(n)
        a = rng.uniform(-0.5, 0.5, size=(3, 5, n)) / math.sqrt(n)
        b = rng.uniform(-0.5, 0.5, size=(3, 5, n)) / math.sqrt(n)
        for rho in (0.5, 1.0, 2.0, 1000.0):
            G, H = gradient(a, b, rho), hessian(a, b, rho)
            L = scaled_loglik(a, b, rho, 1.0)
            for idx in np.ndindex(3, 5):
                assert G[idx].tobytes() == gradient(a[idx], b[idx], rho).tobytes()
                assert H[idx].tobytes() == hessian(a[idx], b[idx], rho).tobytes()
                assert L[idx].tobytes() == scaled_loglik(a[idx], b[idx], rho, 1.0).tobytes()
        a[0] *= 100.0
        L = scaled_loglik(a, b, 2.0, 1.0)
        assert np.isneginf(L[0]).any()
        for idx in np.ndindex(3, 5):
            assert L[idx].tobytes() == scaled_loglik(a[idx], b[idx], 2.0, 1.0).tobytes()


    @pytest.mark.parametrize("n, s, t, members", [
        (16, 2, 1, [(16 - q, 0, q) for q in range(1, 9)]),
        (7, 3, 2, [(p, 7 - p - q, q) for p in range(1, 7)
                   for q in range(1, p + 1) if p + q <= 7]),
    ])
    def test_exact_at_members_in_fractions(self, n, s, t, members):
        # in the gauge a = c, b = alpha^2 c every product a_i b_j is
        # rational, so the kernel stays in Fractions and hits 0 exactly
        rho = F(s, t)
        for p, z, q in members:
            c = _levels(p, z, q)
            x = _alpha_sq(p, q, F(s), F(t))
            a = np.array([F(v) for v in c], dtype=object)
            b = np.array([x * v for v in c], dtype=object)
            g = gradient(a, b, rho)
            assert all(type(v) is F and v == 0 for v in g), (p, z, q)
            H = hessian(a, b, rho)
            assert H.shape == (2 * n, 2 * n)
            # the cells no formula writes, a_k a_m and b_k b_m for k != m,
            # keep the int 0 of the object array's allocation
            assert all(type(v) is F or v == 0 and type(v) is int for v in H.flat)
            assert (H == H.T).all()

    def test_float_arrays_with_fraction_rho_give_float64(self):
        a, b = P2_POINT.arrays()
        assert gradient(a, b, F(2)).dtype == np.float64
        assert hessian(a, b, F(2)).dtype == np.float64
        assert np.array_equal(gradient(a, b, F(2)), gradient(a, b, 2.0))
        assert np.array_equal(hessian(a, b, F(2)), hessian(a, b, 2.0))


class TestCanonicalize:
    def test_scales_to_equal_head(self):
        pt = RankTwoPoint.of([1.0, 0.5, -0.5, -1.0], [2.0, 1.0, -1.0, -2.0])
        out = canonicalize(pt)
        expected = np.array([math.sqrt(2), math.sqrt(2) / 2,
                             -math.sqrt(2) / 2, -math.sqrt(2)])
        assert np.allclose(out.a, expected, atol=1e-12)
        assert np.allclose(out.b, expected, atol=1e-12)
        # all pairwise products preserved
        before = np.outer(pt.b, pt.a)
        after = np.outer(out.b, out.a)
        assert np.allclose(np.sort(before.ravel()), np.sort(after.ravel()),
                           atol=1e-12)

    def test_idempotent(self):
        once = canonicalize(P2_POINT)
        twice = canonicalize(once)
        assert np.allclose(once.a, twice.a, atol=1e-15)
        assert np.allclose(once.b, twice.b, atol=1e-15)

    def test_flip_reverse_restores_sign_convention(self):
        # the sign-flipped three-positive point sorts to (3a, -a, -a, -a)
        # with a negative second coordinate; the flip-and-reverse map then
        # lands on the canonical (a, a, a, -3a) form
        flipped = RankTwoPoint.symmetric([-A15, -A15, -A15, 3 * A15])
        out = canonicalize(flipped)
        assert np.allclose(out.a, [A15, A15, A15, -3 * A15], atol=1e-12)
        assert out.a[1] >= 0
        # the matrix survives up to a simultaneous permutation
        original = to_matrix(flipped).as_array()
        restored = to_matrix(out).as_array()
        perm = [2, 1, 0, 3]
        assert np.allclose(restored, original[np.ix_(perm, perm)], atol=1e-12)

    def test_preserves_entry_multiset_and_likelihood(self):
        rng = np.random.default_rng(31)
        weights = WeightTable.symmetric(4, 2, 1)
        for _ in range(50):
            pt = random_feasible(rng)
            try:
                out = canonicalize(pt)
            except RankTwoError:
                continue
            assert log_likelihood(to_matrix(pt), weights) == pytest.approx(
                log_likelihood(to_matrix(out), weights), rel=1e-12, abs=1e-12)

    def test_zero_point_rejected(self):
        with pytest.raises(RankTwoError, match="zero"):
            canonicalize(RankTwoPoint.symmetric([0.0] * 4))

    def test_indefinite_head_rejected(self):
        pt = RankTwoPoint.of([0.5, 0.0, 0.0, -0.5], [-0.5, 0.0, 0.0, 0.5])
        with pytest.raises(RankTwoError, match="order hypothesis"):
            canonicalize(pt)


class TestNormalizeMargins:
    def test_already_normalized_returned_unchanged(self):
        matrix = to_matrix(P2_POINT)
        assert normalize_margins(matrix) is matrix

    def test_single_row_scaling_fixed(self):
        raw = np.ones((4, 4))
        raw[0] *= 2.0
        raw[1] *= 2.0 / 3.0
        raw[2] *= 2.0 / 3.0
        raw[3] *= 2.0 / 3.0
        matrix = ProbMatrix.of(raw.tolist(), Convention.SUM_NSQ)
        out = normalize_margins(matrix).as_array()
        assert np.abs(out.sum(axis=1) - 4).max() <= 1e-12
        assert np.abs(out.sum(axis=0) - 4).max() <= 1e-12

    def test_likelihood_never_decreases(self):
        rng = np.random.default_rng(2)
        weights = WeightTable.symmetric(4, 2, 1)
        for _ in range(200):
            raw = rng.uniform(0.2, 2.0, size=(4, 4))
            raw *= 16.0 / raw.sum()
            matrix = ProbMatrix.of(raw.tolist(), Convention.SUM_NSQ)
            out = normalize_margins(matrix)
            before = log_likelihood(matrix, weights)
            after = log_likelihood(out, weights)
            assert after >= before - 1e-12
            margins_off = max(np.abs(raw.sum(axis=1) - 4).max(),
                              np.abs(raw.sum(axis=0) - 4).max())
            if margins_off > 1e-6:
                assert after > before

    def test_rank_preserved(self):
        matrix = to_matrix(P1_POINT)
        arr = matrix.as_array()
        arr[0] *= 1.25
        arr *= 16.0 / arr.sum()
        skewed = ProbMatrix.of(arr.tolist(), Convention.SUM_NSQ)
        out = normalize_margins(skewed)
        sing = np.linalg.svd(out.as_array(), compute_uv=False)
        assert sing[2] / sing[0] < 1e-12

    def test_rejects_nonpositive(self):
        rows = [[0.0, 2.0, 1.0, 1.0], [2.0, 1.0, 1.0, 0.0],
                [1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 1.0, 2.0]]
        with pytest.raises(FeasibilityError):
            normalize_margins(ProbMatrix.of(rows, Convention.SUM_NSQ))


class TestPointValidation:
    def test_nonzero_sum_rejected(self):
        with pytest.raises(ValueError, match="sum to zero"):
            RankTwoPoint.of([0.1, 0.1, 0.1, 0.1], [0.0] * 4)
