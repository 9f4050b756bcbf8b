"""Newton iteration, multistart search, classification, and EM."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swissfrancs import solvers
from swissfrancs.candidates import (SignPattern, block_point, corner_point,
                                    enumerate_n4)
from swissfrancs.core import ConvergenceError, WeightTable, swiss_counts
from swissfrancs.ranktwo import (FEASIBILITY_MARGIN, RankTwoPoint, gradient,
                                 hessian, stationarity_residual)
from swissfrancs.solvers import (CLASSIFY_RESIDUAL_TOL, HESSIAN_EIG_TOL,
                                 START_BOX, ZERO_POINT_TOL, LatentClassModel,
                                 SolveReport, SolverConfig, _cluster_keys,
                                 _labels, _random_starts, classify_stationary,
                                 em_fit, em_multistart, multistart,
                                 newton_stationary, scaled_loglik)
from swissfrancs.verify import certify

CFG = SolverConfig()
UNIFORM_2 = LatentClassModel.of([0.5, 0.5], [[0.25] * 4] * 2, [[0.25] * 4] * 2)
CANDS = {c.pattern: c for c in enumerate_n4(2, 1)}
L_TARGETS = sorted([c.loglik for c in CANDS.values()] + [0.0])


def _finite_difference_label(pt, rho, h=1e-5):
    """Reference second-order test: central differences of the likelihood
    along an orthonormal basis of the zero-sum, gauge-free tangent space."""
    a, b = pt.arrays()
    n = pt.n
    basis = _reference_tangent_hessian(a, b, rho)[0]
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


def _reference_tangent_hessian(a, b, rho):
    """Basis of the zero-sum, gauge-free tangent space at one point, the
    last 2n - 3 columns of its own complete QR of the three constraint
    columns, and the Hessian projected onto it."""
    n = len(a)
    gauge = np.concatenate([a, -b])
    gauge /= np.linalg.norm(gauge)
    ones_a = np.concatenate([np.ones(n), np.zeros(n)]) / math.sqrt(n)
    ones_b = np.concatenate([np.zeros(n), np.ones(n)]) / math.sqrt(n)
    full, _ = np.linalg.qr(np.column_stack([ones_a, ones_b, gauge]), mode="complete")
    basis = full[:, 3:]
    return basis, basis.T @ hessian(a, b, rho) @ basis


def _reference_flat(a, b):
    return np.abs(np.outer(b, a)).max() < ZERO_POINT_TOL


def _reference_label(pt, rho):
    """Second-order label of one stationary point: QR of the zero-sum,
    gauge-free tangent space, then eigvalsh of the projected Hessian."""
    a, b = pt.arrays()
    if _reference_flat(a, b):
        return "degenerate"
    top = np.linalg.eigvalsh(_reference_tangent_hessian(a, b, rho)[1]).max()
    if top < -HESSIAN_EIG_TOL:
        return "local_max"
    return "saddle" if top > HESSIAN_EIG_TOL else "unclassified"


def _reference_step(a, b, grad, rho, definite=False):
    """The step at one point, and whether its projected Hessian is taken
    as negative definite at the next. A point flagged definite whose
    -H = L L^T has a Cholesky factor with every L_ii^2 at least 1e-8 times
    the largest diagonal entry of -H takes the Newton step
    B (-H)^-1 B^T g and stays flagged; any other takes the saddle-free
    step B V |w|^-1 V^T B^T g, each |w| floored at 1e-8 times the
    largest, and is flagged when every w is negative and none is floored.
    Scaled to length 1 when longer."""
    basis, H = _reference_tangent_hessian(a, b, rho)
    if definite:
        try:
            pivots = np.diag(np.linalg.cholesky(-H)) ** 2
        except np.linalg.LinAlgError:
            definite = False
        else:
            definite = bool(pivots.min() >= 1e-8 * np.diag(-H).max())
        if definite:
            step = basis @ np.linalg.solve(-H, basis.T @ grad)
    if not definite:
        w, V = np.linalg.eigh(H)
        floor = 1e-8 * np.abs(w).max()
        definite = bool(((w < 0) & (-w >= floor)).all())
        step = basis @ (V @ ((V.T @ (basis.T @ grad)) / np.maximum(np.abs(w), floor)))
    return step / max(np.linalg.norm(step), 1.0), definite


def _reference_loglik(a, b, s, t):
    T = 1.0 + np.outer(b, a)
    if T.min() <= FEASIBILITY_MARGIN:
        return float("-inf")
    logs = np.log(T)
    return (s - t) * np.trace(logs) + t * logs.sum()


def _reference_feasible(a, b):
    return (1.0 + np.outer(b, a)).min() > FEASIBILITY_MARGIN


def _reference_balanced(a, b):
    if np.linalg.norm(a) > 0 and np.linalg.norm(b) > 0:
        c = math.sqrt(np.linalg.norm(b) / np.linalg.norm(a))
        return a * c, b / c
    return a, b


def _reference_newton(pt0, rho, cfg, seed):
    """Saddle-free Newton on the tangent space on one start, each step on
    the route _reference_step takes from the last step's flag, one trial
    scale at a time; a scale is accepted when the trial point is interior
    and the gradient norm falls or the likelihood rises strictly above
    its Armijo line. Balanced to |a| = |b| after."""
    a, b = pt0.arrays()
    n = len(a)
    iterations = 0
    definite = False
    for iterations in range(1, cfg.max_iter + 1):
        grad = gradient(a, b, rho)
        if np.abs(grad).max() < cfg.tol:
            break
        step, definite = _reference_step(a, b, grad, rho, definite)
        norm0 = np.linalg.norm(grad)
        value0 = _reference_loglik(a, b, rho, 1.0)
        slope = grad @ step
        scale = 1.0
        improved = False
        for _ in range(40):
            na = a + scale * step[:n]
            nb = b + scale * step[n:]
            if _reference_feasible(na, nb) and (
                    np.linalg.norm(gradient(na, nb, rho)) < norm0 * (1.0 - 1e-4 * scale)
                    or _reference_loglik(na, nb, rho, 1.0)
                    > value0 + 1e-4 * scale * slope):
                a, b = na, nb
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
    a, b = _reference_balanced(a, b)
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
        report = _reference_newton(pt0, rho, cfg, run_seed)
        a, b = report.point.arrays()
        reports.append(replace(report, loglik=_reference_loglik(a, b, s, t)))
    return reports


def _reference_em_step(counts, lam, R, C):
    """One EM update of one start, as the per-start loop ran it."""
    P = np.einsum("h,hi,hj->ij", lam, R, C)
    if (P[counts > 0] <= 0).any():
        loglik = float("-inf")
    else:
        logs = np.where(counts > 0, np.log(np.where(P > 0, P, 1.0)), 0.0)
        loglik = float((counts * logs).sum())
    joint = lam[:, None, None] * R[:, :, None] * C[:, None, :]
    weighted = counts[None, :, :] * joint / P[None, :, :]
    mass = weighted.sum(axis=(1, 2))
    new_lam = mass / counts.sum()
    safe = np.where(mass > 0, mass, 1.0)
    new_R = weighted.sum(axis=2) / safe[:, None]
    new_C = weighted.sum(axis=1) / safe[:, None]
    keep = mass == 0
    new_R[keep] = R[keep]
    new_C[keep] = C[keep]
    return (new_lam, new_R, new_C), loglik


def _reference_em(counts, r, cfg, init=None, seed=None):
    """SQUAREM EM on one start, until a cycle gains less than cfg.tol."""
    table = counts.as_array()
    if init is not None:
        theta = init.arrays()
    else:
        rng = np.random.default_rng(0 if seed is None else seed)
        lam = rng.uniform(0.1, 1.0, size=r)
        lam /= lam.sum()
        R = rng.uniform(0.1, 1.0, size=(r, counts.n))
        R /= R.sum(axis=1, keepdims=True)
        C = rng.uniform(0.1, 1.0, size=(r, counts.n))
        C /= C.sum(axis=1, keepdims=True)
        theta = (lam, R, C)

    def flat(parts):
        return np.concatenate([x.ravel() for x in parts])

    step, loglik = _reference_em_step(table, *theta)
    trace = [loglik]
    iterations = 0
    converged = False
    for iterations in range(1, cfg.max_iter + 1):
        theta2, _ = _reference_em_step(table, *step)
        dr = [b - a for a, b in zip(theta, step)]
        dv = [c - 2 * b + a for a, b, c in zip(theta, step, theta2)]
        nr, nv = math.sqrt(flat(dr) @ flat(dr)), math.sqrt(flat(dv) @ flat(dv))
        alpha = -max(nr / nv, 1.0) if nv > 0 else -1.0
        nxt = None
        for _ in range(solvers.SQUAREM_TRIALS):
            if not alpha < -1:
                break
            trial = [a - 2 * alpha * x + alpha * alpha * y for a, x, y in zip(theta, dr, dv)]
            if (flat(trial) >= 0).all() and (flat(trial) < np.inf).all():
                candidate, value = _reference_em_step(table, *trial)
                if value >= loglik:
                    nxt = candidate
                    break
            alpha = (alpha - 1) / 2
        if nxt is None:
            nxt, _ = _reference_em_step(table, *theta2)
        nxt_step, value = _reference_em_step(table, *nxt)
        if value < loglik:
            # the value fell by rounding: stop on the previous point
            trace.append(loglik)
            converged = True
            break
        theta, step = nxt, nxt_step
        trace.append(value)
        if trace[-1] - trace[-2] < cfg.tol:
            converged = True
            break
        loglik = value
    residual = max(np.abs(b - a).max() for a, b in zip(theta, step))
    return SolveReport(point=LatentClassModel.of(*theta), loglik=trace[-1],
                       residual=float(residual), iterations=iterations,
                       classification="unclassified", converged=converged,
                       method="em", seed=seed, trace=tuple(trace))


def _em_bits(report):
    """Every field of an EM SolveReport, floats as hex, the trace included."""
    assert type(report.loglik) is float and type(report.converged) is bool
    model = report.point
    return (tuple(x.hex() for x in model.weights),
            tuple(tuple(x.hex() for x in row) for row in model.row_cond),
            tuple(tuple(x.hex() for x in row) for row in model.col_cond),
            report.loglik.hex(), report.residual.hex(), report.iterations,
            report.classification, report.converged, report.method, report.seed,
            tuple(x.hex() for x in report.trace))


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


def _hex_rows(a, b):
    return [[x.hex() for x in (*ra, *rb)] for ra, rb in zip(a, b)]


def _near_maximum(rows):
    """rows points within about 1e-3 of the 2:1 maximum ++--, moved by
    zero-sum noise."""
    noise = np.random.default_rng(5).normal(scale=1e-3, size=(2, rows, 4))
    noise -= noise.mean(axis=-1, keepdims=True)
    a, b = CANDS[SignPattern.PPNN].point().arrays()
    return a + noise[0], b + noise[1]


# two rows at rho = 1: the first with b near 0, where two eigenvalues of the
# projected Hessian vanish up to rounding along the flat family
NEAR_FLAT_A = np.array([[0.3, 0.1, -0.1, -0.3], [0.4, -0.1, 0.2, -0.5]])
NEAR_FLAT_B = np.array([1e-9 * np.array([1.0, -1.0, -1.0, 1.0]), [0.2, 0.3, -0.1, -0.4]])


class TestTangentStep:
    def test_step_climbs_away_from_a_saddle(self):
        # moved off the 2:1 ++0- saddle along the projected Hessian's
        # eigenvector of positive eigenvalue, the plain Newton step
        # -B H^-1 B^T g leads back to the saddle, downhill; the saddle-free
        # step leads away from it, uphill
        a, b = CANDS[SignPattern.PPZN].point().arrays()
        basis, H = solvers._tangent_hessian(a[None], b[None], 2.0)
        w, V = np.linalg.eigh(H[0])
        assert w[-1] > HESSIAN_EIG_TOL
        u = 1e-4 * basis[0] @ V[:, -1]
        pa, pb = a + u[:4], b + u[4:]
        grad = gradient(pa[None], pb[None], 2.0)
        # flagged definite or not, the row fails Cholesky and takes eigh
        for definite in (False, True):
            steps, flags = solvers._tangent_step(pa[None], pb[None], grad, 2.0,
                                                 np.array([definite]))
            assert flags.tolist() == [False]
        step = steps[0]
        basis, H = solvers._tangent_hessian(pa[None], pb[None], 2.0)
        plain = -basis[0] @ np.linalg.solve(H[0], basis[0].T @ grad[0])
        assert grad[0] @ step > 0 > grad[0] @ plain
        assert np.allclose(step, -plain, rtol=1e-3, atol=0)

    def test_rows_get_the_floored_capped_step_of_the_reference(self):
        # random draws at 2:1, several with a step longer than 1, and the
        # rank-deficient near-flat rows, none flagged definite: each row's
        # step and flag are the one-row reference's, the step is an ascent
        # direction and is at most 1 long
        ab = _random_starts(4, [np.random.default_rng(k) for k in range(20)])
        grad = gradient(ab[:, 0], ab[:, 1], 2.0)
        step, flags = solvers._tangent_step(ab[:, 0], ab[:, 1], grad, 2.0,
                                            np.zeros(20, dtype=bool))
        flat_grad = gradient(NEAR_FLAT_A, NEAR_FLAT_B, 1.0)
        flat_step, flat_flags = solvers._tangent_step(
            NEAR_FLAT_A, NEAR_FLAT_B, flat_grad, 1.0, np.zeros(2, dtype=bool))
        # the floor applies to the first row, so only the second is flagged
        assert flat_flags.tolist() == [False, True]
        for rows, grads, steps, got, rho in [
                (ab, grad, step, flags, 2.0),
                (zip(NEAR_FLAT_A, NEAR_FLAT_B), flat_grad, flat_step, flat_flags, 1.0)]:
            reference = [_reference_step(ra, rb, g, rho)
                         for (ra, rb), g in zip(rows, grads)]
            assert [[x.hex() for x in row] for row in steps] == \
                [[x.hex() for x in row] for row, _ in reference]
            assert got.tolist() == [flag for _, flag in reference]
            assert (np.vecdot(grads, steps) > 0).all()
        norms = solvers._norm(step)
        assert (norms <= 1 + 1e-15).all() and (norms > 1 - 1e-15).sum() >= 5

    def test_rank_deficient_row_near_the_flat_family(self):
        # the floor lifts the first row's two vanishing eigenvalues to 1e-8
        # times the largest, and both rows converge with the bits of the
        # one-row reference
        a, b = NEAR_FLAT_A, NEAR_FLAT_B
        eig = np.linalg.eigvalsh(solvers._tangent_hessian(a, b, 1.0)[1])
        assert (np.abs(eig) <= HESSIAN_EIG_TOL).sum(axis=-1).tolist() == [2, 0]
        ra, rb, iterations = solvers._newton(a, b, 1.0, CFG)
        assert (np.abs(gradient(ra, rb, 1.0)).max(axis=-1) < CFG.tol).all()
        reference = [_reference_newton(RankTwoPoint.of(*row), 1.0, CFG, None)
                     for row in zip(a, b)]
        assert iterations.tolist() == [r.iterations for r in reference]
        assert _hex_rows(ra, rb) == _hex_rows(*zip(*(r.point.arrays() for r in reference)))

    def test_singular_row_leaves_the_other_rows_alone(self, monkeypatch):
        # a zero first row and column make the projected Hessian of every
        # row with a_1 < 0 exactly singular, where np.linalg.solve raises;
        # the other rows keep their bits and nothing raises, in Newton or
        # in a multistart that climbs and labels under the patch. The
        # singular row runs to max_iter either way, and a cap of 100 only
        # cuts the time it and the 4 starts that fail under the patch take
        cfg = SolverConfig(max_iter=100)
        rng = np.random.default_rng(5)
        noise = rng.normal(scale=1e-3, size=(3, 4))
        noise -= noise.mean(axis=-1, keepdims=True)
        a0, b0 = CANDS[SignPattern.PPNN].point().arrays()
        a = (a0 + noise) * np.array([[1.0], [-1.0], [1.0]])
        b = (b0 + noise[::-1]) * np.array([[1.0], [-1.0], [1.0]])
        plain = solvers._newton(a, b, 2.0, cfg)
        singular = []
        tangent_hessian = solvers._tangent_hessian

        def patched(a, b, rho):
            basis, H = tangent_hessian(a, b, rho)
            rows = a[:, 0] < 0
            H[rows, 0, :] = H[rows, :, 0] = 0.0
            singular.extend(H[rows])
            return basis, H

        monkeypatch.setattr(solvers, "_tangent_hessian", patched)
        ra, rb, iterations = solvers._newton(a, b, 2.0, cfg)
        assert singular
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(singular[0], np.ones(len(singular[0])))
        keep = [0, 2]
        assert _hex_rows(ra[keep], rb[keep]) == _hex_rows(plain[0][keep], plain[1][keep])
        assert iterations[keep].tolist() == plain[2][keep].tolist()
        assert np.isfinite(ra[1]).all() and np.isfinite(rb[1]).all()
        multistart(WeightTable.symmetric(4, 2, 1),
                   SolverConfig(starts=20, seed=1, max_iter=cfg.max_iter))

    def test_cholesky_step_matches_the_saddle_free_step_on_definite_rows(self):
        # where H is negative definite, B (-H)^-1 B^T g and B V |w|^-1 V^T B^T g
        # are the same step; both routes flag every row
        a, b = _near_maximum(8)
        grad = gradient(a, b, 2.0)
        solved, solved_flags = solvers._tangent_step(a, b, grad, 2.0, np.ones(8, dtype=bool))
        eigen, eigen_flags = solvers._tangent_step(a, b, grad, 2.0, np.zeros(8, dtype=bool))
        assert solved_flags.all() and eigen_flags.all()
        # the routes differ in rounding only
        assert (solved != eigen).any()
        assert (np.abs(solved - eigen).max(axis=-1)
                <= 1e-12 * np.abs(eigen).max(axis=-1)).all()

    def test_mixed_routes_give_each_row_its_one_row_bits(self):
        # definite rows flagged (Cholesky and solve) and not flagged (eigh),
        # and indefinite random draws flagged (Cholesky fails, so the
        # stacked call raises and each flagged row is tested alone) and not
        # flagged: every row's step and flag are those of its one-row call
        # and of the one-row reference
        near_a, near_b = _near_maximum(6)
        ab = _random_starts(4, [np.random.default_rng(k) for k in range(6)])
        a = np.concatenate([near_a, ab[:, 0]])
        b = np.concatenate([near_b, ab[:, 1]])
        definite = np.array([True, False] * 6)
        grad = gradient(a, b, 2.0)
        step, flags = solvers._tangent_step(a, b, grad, 2.0, definite)
        alone = [solvers._tangent_step(a[k:k + 1], b[k:k + 1], grad[k:k + 1], 2.0,
                                       definite[k:k + 1]) for k in range(12)]
        reference = [_reference_step(a[k], b[k], grad[k], 2.0, definite[k])
                     for k in range(12)]
        assert [[x.hex() for x in row] for row in step] \
            == [[x.hex() for x in row[0]] for row, _ in alone] \
            == [[x.hex() for x in row] for row, _ in reference]
        assert flags.tolist() == [bool(f[0]) for _, f in alone] \
            == [f for _, f in reference]
        # the draws are indefinite: flagged or not, they end unflagged
        assert flags.tolist() == [True] * 6 + [False] * 6

    def test_singular_definite_row_takes_eigh(self):
        # a point that multistart(symmetric(4, 1, 1), 50 starts, seed
        # 537874176) reaches flagged definite, near the flat family: -H
        # has a Cholesky factor, but its least pivot is 4e-17 against a
        # diagonal of 0.025 and solve raises on it. The row takes eigh, as
        # if not flagged, and the whole multistart runs
        a = np.array([[float.fromhex(x) for x in (
            "0x1.8780ccb8eea9bp-6", "0x1.77d884718833bp-5",
            "-0x1.3d52146928ff9p-3", "0x1.5cd7b36b523aep-4")]])
        b = np.array([[float.fromhex(x) for x in (
            "0x1.4c8f6a8810000p-28", "0x1.6404608f80000p-32",
            "-0x1.436ab2e290000p-29", "-0x1.8234ae3da0000p-29")]])
        H = solvers._tangent_hessian(a, b, 1.0)[1][0]
        np.linalg.cholesky(-H)
        with pytest.raises(np.linalg.LinAlgError, match="Singular"):
            np.linalg.solve(-H, np.ones(len(H)))
        grad = gradient(a, b, 1.0)
        flagged = solvers._tangent_step(a, b, grad, 1.0, np.array([True]))
        plain = solvers._tangent_step(a, b, grad, 1.0, np.array([False]))
        assert flagged[1].tolist() == plain[1].tolist() == [False]
        assert [x.hex() for x in flagged[0][0]] == [x.hex() for x in plain[0][0]]
        assert np.isfinite(flagged[0]).all()
        result = multistart(WeightTable.symmetric(4, 1, 1),
                            SolverConfig(starts=50, seed=537874176))
        assert {r.classification for r in result.reports} == {"degenerate"}

    def test_no_row_takes_eigh_after_its_first_definite_step(self, monkeypatch):
        # near the 2:1 maximum H is negative definite at the first point,
        # so each row takes eigh once and every later step by Cholesky
        eigh_rows, cholesky_rows = [], []
        eigh, cholesky = np.linalg.eigh, np.linalg.cholesky

        def counted_eigh(H):
            eigh_rows.append(len(H))
            return eigh(H)

        def counted_cholesky(M):
            cholesky_rows.append(len(M))
            return cholesky(M)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        a, b = _near_maximum(8)
        _, _, iterations = solvers._newton(a, b, 2.0, CFG)
        assert (iterations >= 3).all()
        assert sum(eigh_rows) == 8
        assert sum(cholesky_rows) == (iterations - 2).sum()

    def test_non_finite_rows_reach_no_lapack_call(self, monkeypatch):
        # at 1.7e308:1 the likelihood, gradient and Hessian overflow: no
        # warning, no raise, no non-finite matrix reaches Cholesky or eigh,
        # and every row stops at its first step, unconverged
        seen = []
        eigh, cholesky = np.linalg.eigh, np.linalg.cholesky

        def checked(call):
            def wrapped(M):
                seen.append(bool(np.isfinite(M).all()))
                return call(M)
            return wrapped

        monkeypatch.setattr(np.linalg, "eigh", checked(eigh))
        monkeypatch.setattr(np.linalg, "cholesky", checked(cholesky))
        ab = _random_starts(4, [np.random.default_rng(k) for k in range(5)])
        _, _, iterations = solvers._newton(ab[:, 0], ab[:, 1], 1.7e308, CFG)
        assert seen and all(seen)
        assert iterations.tolist() == [1] * 5


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
        # in one batch at ratio 2; converged starts on the s = t flat
        # family are stationary only at ratio 1, so they have a batch of
        # their own: on seed 1 the first ends with a and b below
        # ZERO_POINT_TOL and the second with a and b just above it, but
        # both with b a^T below it. The second start at (16, 1001, 1000)
        # on seed 1 converges to a point off the flat family whose top
        # projected eigenvalue, -0.99989e-7, lies inside HESSIAN_EIG_TOL
        ends = multistart(WeightTable.symmetric(4, 1, 1),
                          SolverConfig(starts=2, seed=1)).reports
        near_equal = multistart(WeightTable.symmetric(16, 1001, 1000),
                                SolverConfig(starts=2, seed=1)).reports[1]
        rows = [(c.point(), 2.0) for c in CANDS.values()]
        rows += [(RankTwoPoint.symmetric([0.0] * 4), 2.0)]
        rows += [(r.point, 1.0) for r in ends]
        rows += [(near_equal.point, 1.001)]
        expected = [_reference_label(pt, rho) for pt, rho in rows]
        assert expected[-3:] == ["degenerate", "degenerate", "unclassified"]
        assert set(expected) == {"local_max", "saddle", "degenerate", "unclassified"}
        for rho in (2.0, 1.0, 1.001):
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

    def test_every_start_at_equal_weights_is_degenerate(self):
        # every start ends with max |b_i a_j| below ZERO_POINT_TOL, though
        # 28 of them keep a and b just above it
        result = multistart(WeightTable.symmetric(4, 1, 1),
                            SolverConfig(starts=50, seed=1))
        assert [r.classification for r in result.reports] == ["degenerate"] * 50

    def test_no_start_ends_on_a_saddle_near_equal_weights(self):
        # at 21:20 the search used to leave 30 of these 50 starts on
        # saddles; the saddle-free step climbs away from them
        result = multistart(WeightTable.symmetric(4, 21, 20),
                            SolverConfig(starts=50, seed=1))
        assert result.n_failed == 0
        assert "saddle" not in {c.representative.classification
                                for c in result.clusters}

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
        (4, 1, 1, 20), (4, 100, 1, 10), (4, 1000, 1, 1), (2, 1000, 1, 10)])
    def test_batched_starts_match_the_per_start_loop(self, n, s, t, starts):
        # the batched kernels take logs and quotients only of feasible
        # trial points, so no warning escapes even at 1000:1 (warnings
        # are errors in the test suite); every start at (2, 1000, 1) ends
        # on a line search that accepts no scale
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
        start = _random_starts(n, [rng])[0]
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


def _assert_monotone(report):
    """The trace never falls, with no tolerance, as the bench checks it,
    and it ends on the returned model's log L."""
    trace = report.trace
    assert all(b >= a for a, b in zip(trace, trace[1:]))
    assert report.loglik == trace[-1]
    assert report.iterations == len(trace) - 1


def _assert_feasible(model):
    """Nonnegative weights and conditionals, each summing to 1."""
    for dist in (model.weights, *model.row_cond, *model.col_cond):
        assert min(dist) >= 0
        assert math.fsum(dist) == pytest.approx(1, abs=1e-12)


class TestEM:
    def test_single_class_independence_fit(self):
        report = em_fit(swiss_counts(), 1, CFG)
        assert report.loglik == pytest.approx(40 * math.log(1 / 16), abs=1e-10)
        matrix = report.point.matrix().as_array()
        assert np.allclose(matrix, 1 / 16, atol=1e-12)

    def test_uniform_init_is_fixed_point(self):
        # r = v = 0 there, so the cycle takes alpha = -1 and gains nothing
        report = em_fit(swiss_counts(), 2, CFG, init=UNIFORM_2)
        assert report.converged
        assert report.iterations == 1
        assert report.trace[0] == report.trace[1]
        assert report.point == UNIFORM_2
        assert report.loglik == pytest.approx(40 * math.log(1 / 16), abs=1e-10)

    def test_empty_class_keeps_its_conditionals(self):
        # class 2 has weight 0, so the M step gives it no mass and keeps
        # its conditionals; class 1, uniform, is the independence fit
        init = LatentClassModel.of([1, 0], [[0.25] * 4, [0.1, 0.2, 0.3, 0.4]],
                                   [[0.25] * 4, [0.4, 0.3, 0.2, 0.1]])
        report = em_fit(swiss_counts(), 2, SolverConfig(), init=init)
        assert report.converged
        assert report.iterations == 1
        assert report.point == init
        assert report.loglik == pytest.approx(40 * math.log(1 / 16), abs=1e-10)

    def test_traces_monotone(self):
        cfg = SolverConfig(starts=10, seed=1)
        result = em_multistart(swiss_counts(), 2, cfg)
        for report in result.reports:
            _assert_monotone(report)

    @pytest.mark.parametrize("seed", [256000, 512000])
    def test_traces_monotone_on_bench_table(self, seed):
        # at these bench pass seeds some rows end a cycle a rounding error
        # below where it began, and stop on their previous point
        result = em_multistart(_random_counts(0, 8), 3, SolverConfig(starts=20, seed=seed))
        for report in result.reports:
            _assert_monotone(report)
            _assert_feasible(report.point)

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

    def test_rejects_init_with_a_counted_cell_at_zero(self):
        # rows 3 and 4 get zero probability but hold counts; EM would run
        # every cycle on NaN with log L -inf
        init = LatentClassModel.of([0.5, 0.5], [[0.5, 0.5, 0, 0]] * 2,
                                   [[0.25] * 4] * 2)
        with pytest.raises(ValueError, match="counted cell"):
            em_fit(swiss_counts(), 2, SolverConfig(max_iter=50), init=init)
        # a zero on an uncounted cell is fine
        table = WeightTable.full([[5, 1, 0, 0], [1, 4, 0, 0], [2, 2, 0, 0], [1, 1, 0, 0]])
        report = em_fit(table, 2, CFG, init=LatentClassModel.of(
            [0.5, 0.5], [[0.25] * 4] * 2, [[0.5, 0.5, 0, 0], [0.3, 0.7, 0, 0]]))
        assert math.isfinite(report.loglik) and report.converged

    def test_report_shape(self):
        report = em_fit(swiss_counts(), 2, SolverConfig(), seed=4)
        assert report.method == "em"
        assert report.trace is not None
        assert report.residual < 1e-6
        data = report.to_json_dict()
        assert data["point"]["kind"] == "latent"


def _random_counts(seed, n):
    """An n x n table of counts 1 to 49, drawn as the bench draws its 8 x 8
    EM table."""
    rng = random.Random(seed)
    return WeightTable.full([[rng.randint(1, 49) for _ in range(n)] for _ in range(n)])


class TestBatchedEM:
    """em_multistart runs its starts as one batch; every report must be
    the one the per-start loop gives, bit for bit, trace included."""

    def _assert_matches_loop(self, counts, r, cfg):
        result = em_multistart(counts, r, cfg)
        reference = [_reference_em(counts, r, cfg, seed=cfg.seed ^ k)
                     for k in range(cfg.starts)]
        assert [_em_bits(rep) for rep in result.reports] \
            == [_em_bits(rep) for rep in reference]
        assert result.best is result.reports[
            max(range(cfg.starts), key=lambda k: reference[k].loglik)]
        return result

    @pytest.mark.parametrize("seed", [1, 2, 11])
    def test_swiss_table(self, seed):
        self._assert_matches_loop(swiss_counts(), 2, SolverConfig(starts=20, seed=seed))

    @pytest.mark.parametrize("seed", [1, 5])
    def test_bench_eight_by_eight_table(self, seed):
        self._assert_matches_loop(_random_counts(0, 8), 3, SolverConfig(starts=3, seed=seed))

    def test_starts_that_hit_max_iter(self):
        result = self._assert_matches_loop(
            _random_counts(0, 8), 3, SolverConfig(starts=8, seed=1, max_iter=100))
        stopped = [rep.converged for rep in result.reports]
        assert any(stopped) and not all(stopped)
        for rep in result.reports:
            if not rep.converged:
                assert rep.iterations == 100 and len(rep.trace) == 101

    def test_one_class(self):
        self._assert_matches_loop(swiss_counts(), 1, SolverConfig(starts=5, seed=3))

    @pytest.mark.parametrize("n, r", [(2, 2), (3, 4), (5, 2), (9, 3)])
    def test_other_shapes(self, n, r):
        self._assert_matches_loop(_random_counts(n, n), r,
                                  SolverConfig(starts=4, seed=n, max_iter=200))

    def test_em_fit_is_the_one_row_call(self):
        for kwargs in ({"init": UNIFORM_2}, {"seed": None}, {"seed": 7}):
            assert _em_bits(em_fit(swiss_counts(), 2, CFG, **kwargs)) \
                == _em_bits(_reference_em(swiss_counts(), 2, CFG, **kwargs))


class TestEMZeroCounts:
    """An all-zero row or column of counts drives P to 0 there; EM must
    stay finite (warnings are errors in the test suite), and SQUAREM's
    extrapolated trials must neither leave the simplex nor stall there."""

    @pytest.mark.parametrize("rows", [
        [[5, 0, 2], [0, 0, 0], [2, 0, 1]],
        [[5, 1, 2, 0], [1, 4, 3, 0], [2, 2, 6, 0], [0, 0, 0, 0]],
        [[5, 0, 2], [0, 4, 3], [2, 0, 0]],
    ], ids=["zero-row-and-column", "zero-border", "scattered-zeros"])
    def test_fit_stays_finite(self, rows):
        table = WeightTable.full(rows)
        counts = table.as_array()
        total = counts.sum()
        saturated = math.fsum(x * math.log(x / total) for x in counts.flat if x > 0)
        result = em_multistart(table, 2, SolverConfig(starts=3, seed=1))
        for report in result.reports:
            assert report.converged
            assert math.isfinite(report.residual) and report.residual < 1e-6
            _assert_monotone(report)
            # structural zeros in R and C stay at zero, not below it
            _assert_feasible(report.point)
            model = report.point
            expected = math.fsum(
                counts[i, j] * math.log(math.fsum(
                    model.weights[h] * model.row_cond[h][i] * model.col_cond[h][j]
                    for h in range(model.r)))
                for i in range(table.n) for j in range(table.n) if counts[i, j] > 0)
            assert report.loglik == pytest.approx(expected, rel=1e-12)
            assert report.loglik <= saturated + 1e-9
