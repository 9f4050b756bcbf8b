"""Newton iteration, multistart search, classification, and EM."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swissfrancs import solvers
from swissfrancs.candidates import (SignPattern, block_point, corner_point,
                                    enumerate_n4)
from swissfrancs.core import ConvergenceError, WeightTable, swiss_counts
from swissfrancs.ranktwo import RankTwoPoint
from swissfrancs.solvers import (HESSIAN_EIG_TOL, LatentClassModel,
                                 SolverConfig, _cluster_key,
                                 classify_stationary, em_fit, em_multistart,
                                 multistart, newton_stationary, scaled_loglik)

CFG = SolverConfig()
CANDS = {c.pattern: c for c in enumerate_n4(2, 1)}
L_TARGETS = sorted([c.loglik for c in CANDS.values()] + [0.0])


def _finite_difference_label(pt, rho, h=1e-5):
    """Reference second-order test: central differences of the likelihood
    along an orthonormal basis of the zero-sum, gauge-free tangent space."""
    a, b = pt.arrays()
    n = pt.n
    gauge = np.concatenate([a, -b])
    gauge /= np.linalg.norm(gauge)
    ones_a = np.concatenate([np.ones(n), np.zeros(n)]) / math.sqrt(n)
    ones_b = np.concatenate([np.zeros(n), np.ones(n)]) / math.sqrt(n)
    full, _ = np.linalg.qr(np.column_stack([ones_a, ones_b, gauge, np.eye(2 * n)]))
    basis = full[:, 3:2 * n]
    x0 = np.concatenate([a, b])

    def value(x):
        return scaled_loglik(x[:n], x[n:], rho, 1.0)

    dim = basis.shape[1]
    H = np.zeros((dim, dim))
    for p in range(dim):
        vp = basis[:, p]
        H[p, p] = (value(x0 + h * vp) - 2.0 * value(x0) + value(x0 - h * vp)) / h ** 2
        for q in range(p + 1, dim):
            vq = basis[:, q]
            H[p, q] = H[q, p] = (
                value(x0 + h * (vp + vq)) - value(x0 + h * (vp - vq))
                - value(x0 - h * (vp - vq)) + value(x0 - h * (vp + vq))
            ) / (4.0 * h ** 2)
    top = np.linalg.eigvalsh(H).max()
    if top < -HESSIAN_EIG_TOL:
        return "local_max"
    return "saddle" if top > HESSIAN_EIG_TOL else "unclassified"


class TestConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.max_iter == 10_000
        assert cfg.tol == 1e-12
        assert cfg.starts == 200
        assert cfg.cluster_eps == 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        with pytest.raises(ValueError):
            SolverConfig(tol=-1.0)


class TestNewton:
    def test_converges_back_after_noise(self):
        rng = np.random.default_rng(5)
        base = CANDS[SignPattern.PPNN].point()
        noise = rng.normal(scale=1e-3, size=4)
        noise -= noise.mean()
        start = RankTwoPoint.of(np.array(base.a) + noise,
                                np.array(base.b) + noise)
        report = newton_stationary(start, 2.0, CFG)
        assert report.converged
        head = max(report.point.a)
        assert abs(head - 1 / math.sqrt(5)) <= 1e-10

    def test_symmetric_corner_start(self):
        start = RankTwoPoint.symmetric([0.5, 0.0, 0.0, -0.5])
        report = newton_stationary(start, 2.0, CFG)
        assert report.converged
        assert max(report.point.a) == pytest.approx(1 / math.sqrt(3), abs=1e-10)

    def test_zero_start_is_degenerate(self):
        report = newton_stationary(RankTwoPoint.symmetric([0.0] * 4), 2.0, CFG)
        assert report.converged
        assert report.iterations == 1
        assert report.residual == 0.0
        assert report.classification == "degenerate"

    def test_infeasible_start_rejected(self):
        bad = RankTwoPoint.of([1.0, 0.5, -0.5, -1.0], [2.0, 1.0, -1.0, -2.0])
        with pytest.raises(ConvergenceError, match="infeasible"):
            newton_stationary(bad, 2.0, CFG)


class TestClassify:
    def test_winner_is_local_max(self):
        assert classify_stationary(CANDS[SignPattern.PPNN].point(), 2.0) \
            == "local_max"

    def test_flat_point_is_degenerate(self):
        assert classify_stationary(RankTwoPoint.symmetric([0.0] * 4), 2.0) \
            == "degenerate"

    def test_all_candidates_classified(self):
        # results recorded, not asserted against a fixed table: only the
        # winner is established to be a maximum
        for cand in CANDS.values():
            label = classify_stationary(cand.point(), 2.0)
            assert label in ("local_max", "saddle", "unclassified")

    @pytest.mark.parametrize("point, rho", [
        *((cand.point(), 2.0) for cand in CANDS.values()),
        (block_point(6, 2, 1), 2.0),
        (corner_point(6, 1, 2), 0.5),
    ])
    def test_agrees_with_finite_differences(self, point, rho):
        assert classify_stationary(point, rho) == _finite_difference_label(point, rho)

    def test_requires_stationarity(self):
        with pytest.raises(ValueError, match="stationary"):
            classify_stationary(RankTwoPoint.symmetric([0.3, 0.1, -0.1, -0.3]),
                                2.0)


class TestMultistart:
    def test_finds_global_and_clusters(self):
        from swissfrancs.ranktwo import to_matrix
        cfg = SolverConfig(starts=60, seed=7)
        result = multistart(WeightTable.symmetric(4, 2, 1), cfg)
        target = CANDS[SignPattern.PPNN].loglik
        assert result.best.loglik == pytest.approx(target, abs=1e-10)
        for cluster in result.clusters:
            assert min(abs(cluster.loglik - v) for v in L_TARGETS) < 1e-7
            arr = to_matrix(cluster.representative.point).as_array()
            assert np.abs(arr.sum(axis=0) - 4).max() < 1e-9
            assert np.abs(arr.sum(axis=1) - 4).max() < 1e-9

    def test_deterministic(self):
        cfg = SolverConfig(starts=20, seed=3)
        weights = WeightTable.symmetric(4, 2, 1)
        first = multistart(weights, cfg)
        second = multistart(weights, cfg)
        assert [r.loglik for r in first.reports] == \
            [r.loglik for r in second.reports]
        assert [tuple(r.point.a) for r in first.reports] == \
            [tuple(r.point.a) for r in second.reports]
        assert first.to_json_dict() == second.to_json_dict()

    def test_seed_changes_draws(self):
        weights = WeightTable.symmetric(4, 2, 1)
        first = multistart(weights, SolverConfig(starts=10, seed=1))
        second = multistart(weights, SolverConfig(starts=10, seed=2))
        assert [tuple(r.point.a) for r in first.reports] != \
            [tuple(r.point.a) for r in second.reports]

    def test_off_diagonal_heavy_weights(self):
        from swissfrancs.candidates import corner_matrix
        from swissfrancs.core import Convention, convert_convention, log_likelihood
        cfg = SolverConfig(starts=40, seed=11)
        result = multistart(WeightTable.symmetric(4, 1, 2), cfg)
        nsq = convert_convention(corner_matrix(4, 1, 2), Convention.SUM_NSQ)
        conjectured = log_likelihood(nsq, WeightTable.symmetric(4, 1, 2))
        assert result.best.loglik <= conjectured + 1e-8
        assert result.best.loglik == pytest.approx(conjectured, abs=1e-8)

    def test_full_table_with_symmetric_shape_accepted(self):
        cfg = SolverConfig(starts=10, seed=0)
        result = multistart(swiss_counts(), cfg)
        # the 4/2 table runs at ratio 2; the best value doubles the (2,1) one
        assert result.best.loglik == pytest.approx(
            2 * CANDS[SignPattern.PPNN].loglik, abs=1e-8)

    def test_requires_symmetric_weights(self):
        table = WeightTable.full([[1, 2, 3, 4]] * 4)
        with pytest.raises(ValueError, match="symmetric"):
            multistart(table, SolverConfig(starts=5))

    def test_flat_family_never_saddle(self):
        # at s = t every optimum lies on the flat family, where the
        # projected Hessian is singular up to rounding; b = 0 leaves a
        # free, but every start reaches the one flat matrix
        result = multistart(WeightTable.symmetric(4, 1, 1),
                            SolverConfig(starts=50, seed=1))
        assert all(c.representative.classification != "saddle"
                   for c in result.clusters)
        assert [c.size for c in result.clusters] == [50]

    def test_top_optimum_is_one_cluster(self):
        # the 3+2 block optimum at n = 5 is reached both as (a, b) and as
        # its reversed negation, which encode the same matrix
        result = multistart(WeightTable.symmetric(5, 2, 1),
                            SolverConfig(starts=50, seed=1))
        top = [c for c in result.clusters
               if c.loglik >= result.best.loglik - 1e-9]
        assert len(top) == 1

    def test_one_newton_run_per_start(self, monkeypatch):
        calls = []
        original = solvers.newton_stationary

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(solvers, "newton_stationary", counted)
        result = multistart(WeightTable.symmetric(3, 2, 1),
                            SolverConfig(starts=50, seed=1))
        assert result.n_failed == 0
        assert len(calls) == 50


@st.composite
def _zero_sum_pair(draw):
    n = draw(st.integers(2, 16))
    entries = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
    a = np.array(draw(entries))
    b = np.array(draw(entries))
    perm = np.array(draw(st.permutations(range(n))))
    return a - a.mean(), b - b.mean(), perm


class TestClusterKey:
    @settings(deadline=None)
    @given(_zero_sum_pair(), st.floats(1e-3, 1e3))
    def test_invariant_under_symmetries(self, pair, c):
        a, b, perm = pair
        key = _cluster_key(RankTwoPoint.of(a, b))
        tol = 1e-12 * max(1.0, np.abs(key).max())
        for va, vb in ((c * a, b / c), (-a, -b), (a[perm], b[perm]), (b, a)):
            other = _cluster_key(RankTwoPoint.of(va, vb))
            assert np.abs(other - key).max() <= tol

    def test_separates_candidates(self):
        keys = [_cluster_key(CANDS[p].point())
                for p in (SignPattern.PPNN, SignPattern.PPPN)]
        assert np.abs(keys[0] - keys[1]).max() > CFG.cluster_eps


class TestEM:
    def test_single_class_independence_fit(self):
        report = em_fit(swiss_counts(), 1, CFG)
        assert report.loglik == pytest.approx(40 * math.log(1 / 16), abs=1e-10)
        matrix = report.point.matrix().as_array()
        assert np.allclose(matrix, 1 / 16, atol=1e-12)

    def test_uniform_init_is_fixed_point(self):
        init = LatentClassModel.of([0.5, 0.5], [[0.25] * 4] * 2, [[0.25] * 4] * 2)
        report = em_fit(swiss_counts(), 2, CFG, init=init)
        assert report.converged
        assert report.iterations == 1
        assert report.loglik == pytest.approx(40 * math.log(1 / 16), abs=1e-10)

    def test_traces_monotone(self):
        cfg = SolverConfig(starts=10, seed=1)
        result = em_multistart(swiss_counts(), 2, cfg)
        for report in result.reports:
            steps = np.diff(report.trace)
            assert steps.min() >= -1e-12

    def test_best_reaches_rank_two_optimum(self):
        cfg = SolverConfig(starts=20, seed=0)
        result = em_multistart(swiss_counts(), 2, cfg)
        target = 24 * math.log(3 / 40) + 16 * math.log(1 / 20)
        assert result.best.loglik == pytest.approx(target, abs=1e-6)

    def test_rejects_bad_class_count(self):
        with pytest.raises(ValueError):
            em_fit(swiss_counts(), 0, CFG)

    def test_report_shape(self):
        report = em_fit(swiss_counts(), 2, SolverConfig(), seed=4)
        assert report.method == "em"
        assert report.trace is not None
        assert report.residual < 1e-6
        data = report.to_json_dict()
        assert data["point"]["kind"] == "latent"
