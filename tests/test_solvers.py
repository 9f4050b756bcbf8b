"""Newton iteration, multistart search, classification, and EM."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swissfrancs.candidates import (SignPattern, block_point, corner_point,
                                    enumerate_n4)
from swissfrancs.core import ConvergenceError, WeightTable, swiss_counts
from swissfrancs.ranktwo import (FEASIBILITY_MARGIN, RankTwoPoint, gradient,
                                 hessian, stationarity_residual)
from swissfrancs.solvers import (CLASSIFY_RESIDUAL_TOL, HESSIAN_EIG_TOL,
                                 START_BOX, ZERO_POINT_TOL, LatentClassModel,
                                 SolveReport, SolverConfig, _cluster_keys,
                                 _labels, _random_start, classify_stationary,
                                 em_fit, em_multistart, multistart,
                                 newton_stationary, scaled_loglik)

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


def _bits(report):
    """Every field of a rank-two SolveReport, floats as hex. The flag and
    the label must be the builtin types json.dumps takes."""
    assert type(report.converged) is bool
    assert type(report.classification) is str
    return (tuple(x.hex() for x in report.point.a),
            tuple(x.hex() for x in report.point.b),
            float(report.loglik).hex(), report.residual.hex(), report.iterations,
            report.classification, report.converged, report.method, report.seed)


def _reference_label(pt, rho):
    """Second-order label of one stationary point: QR of the zero-sum,
    gauge-free tangent space, then eigvalsh of the projected Hessian."""
    a, b = pt.arrays()
    n = pt.n
    if max(np.abs(a).max(), np.abs(b).max()) < ZERO_POINT_TOL:
        return "degenerate"
    gauge = np.concatenate([a, -b])
    gauge /= np.linalg.norm(gauge)
    ones_a = np.concatenate([np.ones(n), np.zeros(n)]) / math.sqrt(n)
    ones_b = np.concatenate([np.zeros(n), np.ones(n)]) / math.sqrt(n)
    full, _ = np.linalg.qr(np.column_stack([ones_a, ones_b, gauge, np.eye(2 * n)]))
    basis = full[:, 3:2 * n]
    top = np.linalg.eigvalsh(basis.T @ hessian(a, b, rho) @ basis).max()
    if top < -HESSIAN_EIG_TOL:
        return "local_max"
    return "saddle" if top > HESSIAN_EIG_TOL else "unclassified"


def _reference_loglik(a, b, s, t):
    T = 1.0 + np.outer(b, a)
    if T.min() <= FEASIBILITY_MARGIN:
        return float("-inf")
    logs = np.log(T)
    return (s - t) * np.trace(logs) + t * logs.sum()


def _reference_system(a, b, rho):
    return np.concatenate([gradient(a, b, rho),
                           [a.sum(), b.sum(), 0.5 * (a @ a - b @ b)]])


def _reference_feasible(a, b):
    return (1.0 + np.outer(b, a)).min() > FEASIBILITY_MARGIN


def _reference_newton(pt0, rho, cfg, seed):
    """Damped least-squares Newton on one start, one trial scale at a time."""
    a, b = pt0.arrays()
    n = len(a)
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        F = _reference_system(a, b, rho)
        if np.abs(F[:-1]).max() < cfg.tol:
            break
        rows = np.zeros((3, 2 * n))
        rows[0, :n] = 1.0
        rows[1, n:] = 1.0
        rows[2, :n] = a
        rows[2, n:] = -b
        J = np.vstack([hessian(a, b, rho), rows])
        step, *_ = np.linalg.lstsq(J, -F, rcond=None)
        norm0 = np.linalg.norm(F)
        scale = 1.0
        improved = False
        for _ in range(40):
            na = a + scale * step[:n]
            nb = b + scale * step[n:]
            if _reference_feasible(na, nb):
                if np.linalg.norm(_reference_system(na, nb, rho)) \
                        < norm0 * (1.0 - 1e-4 * scale):
                    a, b = na, nb
                    improved = True
                    break
            scale *= 0.5
        if not improved:
            break
    a = a - a.mean()
    b = b - b.mean()
    pt = RankTwoPoint.of(a, b)
    resid = float(np.abs(stationarity_residual(pt, rho)).max()) \
        if _reference_feasible(a, b) else float("inf")
    return SolveReport(
        point=pt, loglik=_reference_loglik(a, b, rho, 1.0), residual=resid,
        iterations=iterations,
        classification=_reference_label(pt, rho)
        if resid < CLASSIFY_RESIDUAL_TOL else "unclassified",
        converged=resid < cfg.tol * (n + rho - 1), method="newton", seed=seed)


def _reference_ascent(pt0, rho, max_iter=500, grad_tol=1e-6):
    """Backtracking projected gradient ascent on one start."""
    a, b = pt0.arrays()
    n = len(a)
    value = _reference_loglik(a, b, rho, 1.0)
    for _ in range(max_iter):
        grad = gradient(a, b, rho)
        da = grad[:n] - grad[:n].mean()
        db = grad[n:] - grad[n:].mean()
        norm2 = da @ da + db @ db
        if math.sqrt(norm2) < grad_tol:
            break
        scale = 1.0
        moved = False
        for _ in range(40):
            na, nb = a + scale * da, b + scale * db
            new_value = _reference_loglik(na, nb, rho, 1.0)
            if new_value >= value + 1e-4 * scale * norm2:
                a, b, value = na, nb, new_value
                moved = True
                break
            scale *= 0.5
        if not moved:
            break
    return RankTwoPoint.of(a - a.mean(), b - b.mean())


def _reference_multistart(weights, cfg):
    """The reports of multistart as a loop over the starts, one at a time."""
    s, t = (float(x) for x in weights.symmetric_pair())
    rho = s / t
    reports = []
    for k in range(cfg.starts):
        run_seed = cfg.seed ^ k
        rng = np.random.default_rng(run_seed)
        width = START_BOX / math.sqrt(weights.n)
        a = rng.uniform(-width, width, size=weights.n)
        b = rng.uniform(-width, width, size=weights.n)
        pt0 = RankTwoPoint.of(a - a.mean(), b - b.mean())
        report = _reference_newton(_reference_ascent(pt0, rho), rho, cfg, run_seed)
        a, b = report.point.arrays()
        reports.append(replace(report, loglik=_reference_loglik(a, b, s, t)))
    return reports


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

    @pytest.mark.parametrize("field", ["tol", "cluster_eps"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SolverConfig(**{field: value})


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

    def test_loose_tol_labels_only_stationary_points(self):
        # a start that stops above the classification residual is
        # unclassified, not passed to classify_stationary, which raises
        result = multistart(WeightTable.symmetric(4, 2, 1),
                            SolverConfig(starts=20, seed=1, tol=1e-6))
        loose = [r for r in result.reports if r.residual >= CLASSIFY_RESIDUAL_TOL]
        assert loose and all(r.converged for r in loose)
        assert {r.classification for r in loose} == {"unclassified"}

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

    def test_batch_labels_each_row_as_the_reference_does(self):
        # the 2:1 candidates (local maxima and saddles) and the flat origin
        # in one batch at ratio 2; a converged start on the s = t flat
        # family is stationary only at ratio 1, so it has a batch of its own
        flat = multistart(WeightTable.symmetric(4, 1, 1),
                          SolverConfig(starts=1, seed=1)).best.point
        rows = [(c.point(), 2.0) for c in CANDS.values()]
        rows += [(RankTwoPoint.symmetric([0.0] * 4), 2.0), (flat, 1.0)]
        expected = [_reference_label(pt, rho) for pt, rho in rows]
        assert set(expected) == {"local_max", "saddle", "degenerate", "unclassified"}
        for rho in (2.0, 1.0):
            batch = [pt for pt, r in rows if r == rho]
            a = np.array([pt.a for pt in batch])
            b = np.array([pt.b for pt in batch])
            assert _labels(a, b, rho) == \
                [label for (_, r), label in zip(rows, expected) if r == rho]
        assert _labels(np.empty((0, 4)), np.empty((0, 4)), 2.0) == []


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

    @pytest.mark.parametrize("n, s, t, starts", [
        (4, 2, 1, 40), (4, 3, 2, 40), (3, 2, 1, 20), (16, 2, 1, 20),
        (4, 1, 1, 20), (4, 100, 1, 10), (4, 1000, 1, 1)])
    def test_batched_starts_match_the_per_start_loop(self, n, s, t, starts):
        # the batched kernels take logs and quotients only of feasible
        # trial points, so no warning escapes even at 1000:1 (warnings
        # are errors in the test suite)
        weights = WeightTable.symmetric(n, s, t)
        cfg = SolverConfig(starts=starts, seed=1)
        result = multistart(weights, cfg)
        reference = _reference_multistart(weights, cfg)
        assert len(result.reports) == starts
        assert [_bits(r) for r in result.reports] == [_bits(r) for r in reference]
        assert result.n_failed == sum(not r.converged for r in reference) == 0


class TestRandomStart:
    @settings(deadline=None)
    @given(st.integers(2, 16), st.integers(0, 2 ** 63 - 1))
    def test_one_draw_is_interior(self, n, seed):
        rng = np.random.default_rng(seed)
        start = _random_start(n, rng)
        assert start.shape == (2, n)
        a, b = start
        assert abs(a.sum()) < 1e-12 and abs(b.sum()) < 1e-12
        bound = 1 - 1.44 * (n - 1) ** 2 / n ** 3
        assert bound >= 0.78
        assert (1.0 + np.outer(b, a)).min() >= bound - 1e-12
        # exactly the two vectors were drawn
        reference = np.random.default_rng(seed)
        reference.uniform(size=2 * n)
        assert rng.uniform() == reference.uniform()


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
        images = [(a, b), (c * a, b / c), (-a, -b), (a[perm], b[perm]), (b, a)]
        keys = _cluster_keys(np.array([va for va, _ in images]),
                             np.array([vb for _, vb in images]))
        tol = 1e-12 * max(1.0, np.abs(keys[0]).max())
        assert np.abs(keys[1:] - keys[0]).max() <= tol

    def test_separates_candidates(self):
        points = [CANDS[p].point() for p in (SignPattern.PPNN, SignPattern.PPPN)]
        keys = _cluster_keys(np.array([pt.a for pt in points]),
                             np.array([pt.b for pt in points]))
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

    @pytest.mark.parametrize("max_iter", [3, 10_000])
    def test_last_trace_value_is_the_models_loglik(self, max_iter):
        table = WeightTable.full([[5, 1, 2], [1, 4, 3], [2, 2, 6]])
        report = em_fit(table, 2, SolverConfig(max_iter=max_iter), seed=2)
        model = report.point
        expected = math.fsum(
            table.as_array()[i, j] * math.log(math.fsum(
                model.weights[h] * model.row_cond[h][i] * model.col_cond[h][j]
                for h in range(model.r)))
            for i in range(3) for j in range(3))
        assert report.loglik == report.trace[-1]
        assert report.trace[-1] == pytest.approx(expected, rel=1e-13)
        assert report.iterations == len(report.trace) - 1

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
