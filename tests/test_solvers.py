"""Newton iteration, multistart search, classification, and EM."""

import json
import math
import random
from dataclasses import replace
from pathlib import Path

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
# (n, s, t, starts) of the certify calls whose structure is pinned
STRUCTURE_SHAPES = [(4, 2, 1, 200), (4, 3, 2, 200), (6, 1, 2, 50), (3, 2, 1, 50),
                    (5, 2, 1, 50), (16, 2, 1, 50), (4, 1, 1, 50), (4, 100, 1, 10),
                    (4, 1000, 1, 1), (16, 1001, 1000, 3), (2, 1000, 1, 10),
                    (4, 21, 20, 50)]
STRUCTURE = Path(__file__).parent / "golden" / "multistart_structure.json"


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
            report.classification, report.converged, report.method, report.start)


def _structure(n, s, t, starts, seed):
    """What a certify call concludes, without the floats that rounding
    moves: the verdict, each check's name and passed flag, and the
    search's failed starts, clusters (size and label, in order) and best
    log L, which is compared to a tolerance."""
    cert = certify(n, s, t, SolverConfig(starts=starts, seed=seed))
    ms = cert.multistart_result
    return {"verdict": cert.verdict,
            "checks": [[c.name, c.passed] for c in cert.checks],
            "n_failed": ms.n_failed,
            "clusters": [[c.size, c.representative.classification] for c in ms.clusters],
            "best_loglik": ms.best.loglik}


def _reference_tangent_hessian(a, b, rho):
    """Basis of the zero-sum, gauge-free tangent space at one point, and
    the Hessian projected onto it. Z, n - 1 columns of the reflection that
    sends the unit vector of ones to -e_n, spans the zero-sum vectors;
    Q = diag(Z, Z), and the reflection that sends the unit vector along
    Q^T (a, -b) to -sign e_last, its last column dropped, turns Q into
    the basis."""
    n = len(a)
    w = np.ones(n) / math.sqrt(n)
    w[-1] += 1.0
    Z = (np.eye(n) - np.outer(w, w) / w[-1])[:, :-1]
    Q = np.block([[Z, np.zeros((n, n - 1))], [np.zeros((n, n - 1)), Z]])
    v = Q.T @ np.concatenate([a, -b])
    v /= np.linalg.norm(v)
    # Q times the reflection I - h h^T / top, h = v + sign(v_last) e_last
    top = abs(v[-1]) + 1.0
    h = np.append(v[:-1], math.copysign(top, v[-1]))
    basis = Q[:, :-1] - np.outer(Q @ h, h[:-1] / top)
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


def _reference_step(a, b, grad, rho):
    """The step at one point. Where -H = L L^T has a Cholesky factor with
    every L_ii^2 at least 1e-8 times the largest diagonal entry of -H, the
    Newton step B (-H)^-1 B^T g; anywhere else the saddle-free step
    B V |w|^-1 V^T B^T g, each |w| floored at 1e-8 times the largest, NaN
    where that eigh raises. Scaled to length 1 when longer."""
    basis, H = _reference_tangent_hessian(a, b, rho)
    try:
        pivots = np.diag(np.linalg.cholesky(-H)) ** 2
    except np.linalg.LinAlgError:
        definite = False
    else:
        definite = pivots.min() >= 1e-8 * np.diag(-H).max()
    if definite:
        step = basis @ np.linalg.solve(-H, basis.T @ grad)
    else:
        try:
            w, V = np.linalg.eigh(H)
        except np.linalg.LinAlgError:
            w, V = np.full(len(H), np.nan), np.full(H.shape, np.nan)
        floor = 1e-8 * np.abs(w).max()
        step = basis @ (V @ ((V.T @ (basis.T @ grad)) / np.maximum(np.abs(w), floor)))
    return step / max(np.linalg.norm(step), 1.0)


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


def _reference_newton(pt0, rho, cfg, start):
    """Saddle-free Newton on the tangent space on one start, each step
    _reference_step's, one trial scale at a time; a scale is accepted
    when the trial point is interior and the gradient norm falls or the
    likelihood rises strictly above its Armijo line. Balanced to
    |a| = |b| after."""
    a, b = pt0.arrays()
    n = len(a)
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        grad = gradient(a, b, rho)
        if np.abs(grad).max() < cfg.tol:
            break
        step = _reference_step(a, b, grad, rho)
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
        converged=resid < cfg.tol * (n + rho - 1), method="newton", start=start)


def _reference_multistart(weights, cfg):
    """The reports of multistart as a loop over the starts, one at a time,
    each drawing its a and then its b from the run's one generator."""
    s, t = (float(x) for x in weights.symmetric_pair())
    rho = s / t
    reports = []
    rng = np.random.default_rng(cfg.seed)
    width = START_BOX / math.sqrt(weights.n)
    for k in range(cfg.starts):
        a = rng.uniform(-width, width, size=weights.n)
        b = rng.uniform(-width, width, size=weights.n)
        pt0 = RankTwoPoint.of(a - a.mean(), b - b.mean())
        report = _reference_newton(pt0, rho, cfg, k)
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


def _reference_em(counts, r, cfg, rng, start):
    """SQUAREM EM on one start drawn from rng, until a cycle gains less
    than cfg.tol."""
    table = counts.as_array()
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
                       method="em", start=start, trace=tuple(trace))


def _reference_em_starts(counts, r, cfg):
    """The reports of em_multistart as a loop over the starts, one at a
    time, each drawing from the run's one generator."""
    rng = np.random.default_rng(cfg.seed)
    return [_reference_em(counts, r, cfg, rng, k) for k in range(cfg.starts)]


def _em_bits(report):
    """Every field of an EM SolveReport, floats as hex, the trace included."""
    assert type(report.loglik) is float and type(report.converged) is bool
    model = report.point
    return (tuple(x.hex() for x in model.weights),
            tuple(tuple(x.hex() for x in row) for row in model.row_cond),
            tuple(tuple(x.hex() for x in row) for row in model.col_cond),
            report.loglik.hex(), report.residual.hex(), report.iterations,
            report.classification, report.converged, report.method, report.start,
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

    @pytest.mark.parametrize("field, value", [
        ("starts", 2.5), ("starts", True), ("starts", 2.0), ("max_iter", 1.5),
        ("max_iter", False), ("seed", 1.5), ("seed", True)])
    def test_non_integer_counts_rejected(self, field, value):
        # a float, whole or not, or a bool used to construct and then fail
        # with a TypeError inside numpy or range
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field", ["tol", "cluster_eps"])
    def test_bool_tolerance_rejected(self, field):
        # True used to run as a tolerance of 1.0
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            SolverConfig(**{field: True})

    def test_integer_types_accepted(self):
        cfg = SolverConfig(starts=np.int64(3), seed=np.uint32(7), max_iter=50, tol=1)
        assert (cfg.starts, cfg.seed, cfg.max_iter, cfg.tol) == (3, 7, 50, 1)

    @pytest.mark.parametrize("n", [4.0, 4.5, True])
    def test_multistart_rejects_a_non_integer_side(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            multistart(WeightTable.symmetric(n, 2, 1), SolverConfig(starts=2, seed=1))


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


def _margin_scaled(a, b):
    """Two multiples of b, one float step of the scale apart, between
    which the least entry of 1 + b a^T crosses FEASIBILITY_MARGIN: the
    first keeps it just above, the second puts it at or below."""
    def least(c):
        return (1.0 + np.outer(c * b, a)).min()

    c = (1.0 - FEASIBILITY_MARGIN) / -np.outer(b, a).min()
    above = least(c) > FEASIBILITY_MARGIN
    # a larger scale lowers the least entry, which is 1 minus a product
    toward = np.inf if above else 0.0
    for _ in range(10_000):
        nxt = np.nextafter(c, toward)
        if (least(nxt) > FEASIBILITY_MARGIN) != above:
            inside, outside = (c, nxt) if above else (nxt, c)
            return inside * b, outside * b
        c = nxt
    raise AssertionError("the least entry never crossed the margin")


class TestSharedTable:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 16), st.integers(0, 2 ** 32 - 1), st.floats(-3.0, 3.0))
    def test_value_and_gradient_are_the_two_calls_bit_for_bit(self, n, seed, log_rho):
        # the line search's (value, gradient) of each row, from one table,
        # is a one-row scaled_loglik(a, b, rho, 1.0) and gradient(a, b, rho),
        # -inf and inf on an infeasible row. Random draws of width 1, some
        # of them infeasible, and one row on each side of the margin, in one
        # batch (the masked path) and without the infeasible rows (the
        # one-table path)
        rho = 10.0 ** log_rho
        ab = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(2, 6, n))
        a, b = ab - ab.mean(axis=-1, keepdims=True)
        inside, outside = _margin_scaled(a[0], b[0])
        a = np.concatenate([a, a[:1], a[:1]])
        b = np.concatenate([b, inside[None], outside[None]])
        feasible = np.array([(1.0 + np.outer(rb, ra)).min() > FEASIBILITY_MARGIN
                             for ra, rb in zip(a, b)])
        assert feasible[-2:].tolist() == [True, False]
        for rows in (np.arange(len(a)), np.flatnonzero(feasible)):
            value, grad = solvers._value_and_gradient(a[rows], b[rows], rho, rho, 1.0)
            for k, v, g in zip(rows, value, grad):
                expected = gradient(a[k], b[k], rho) if feasible[k] \
                    else np.full(2 * n, np.inf)
                assert v.hex() == float(scaled_loglik(a[k], b[k], rho, 1.0)).hex()
                assert (v > -np.inf) == feasible[k]
                assert [x.hex() for x in g] == [x.hex() for x in expected]


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


# the point (a, b) and gradient g of a row whose projected Hessian makes
# eigh raise "Eigenvalues did not converge" with some LAPACK builds
CAPTURED_A = """
    0x1.d7ee9533aeb7cp-3 0x1.d7ee953340ea8p-3 0x1.d7ee95339af72p-3 0x1.d7ee964a70330p-3
    -0x1.2f62849a525cfp-2 -0x1.2f62849a024d4p-2 -0x1.2f62849a02177p-2 0x1.d7ee953326454p-3
    0x1.d7ee953844c7dp-3 -0x1.2f62849a025bdp-2 0x1.d7ee9533a7a5cp-3 -0x1.2f6284a0bb250p-2
    0x1.d7ee95e10702dp-3 -0x1.2f628499ba4fdp-2 -0x1.2f6284a98dfcep-2 0x1.d7ee9533a49d9p-3"""
CAPTURED_B = """
    0x1.969e54e573ae2p-3 0x1.969e54e518969p-3 0x1.969e54e5634a4p-3 0x1.969e55d3eaffbp-3
    -0x1.0565c8f60619dp-2 -0x1.0565c8f5c2b41p-2 -0x1.0565c8f5c286bp-2 0x1.969e54e5025cfp-3
    0x1.969e54e945800p-3 -0x1.0565c8f5c2c06p-2 0x1.969e54e56dd01p-3 -0x1.0565c8fb72f94p-2
    0x1.969e55797c494p-3 -0x1.0565c8f586557p-2 -0x1.0565c902f4849p-2 0x1.969e54e56b4bdp-3"""
CAPTURED_G = """
    -0x1.8dd7e8p-33 -0x1.8aa2f8p-33 -0x1.8d445cp-33 -0x1.01774f8p-30
    0x1.a1033ap-32 0x1.9e8a9p-32 0x1.9e88e2p-32 -0x1.89e2dcp-33
    -0x1.af412cp-33 0x1.9e8aecp-32 -0x1.8da32p-33 0x1.d20454p-32
    -0x1.699544p-31 0x1.9c44b2p-32 0x1.09b6c8p-31 -0x1.8d8c8p-33
    -0x1.ff998p-33 -0x1.fdd89cp-33 -0x1.ff4864p-33 -0x1.126283p-30
    0x1.e91708p-32 0x1.e7129cp-32 0x1.e71138p-32 -0x1.fd6298p-33
    -0x1.09bc08p-32 0x1.e712f8p-32 -0x1.ff7c48p-33 0x1.0a4f94p-31
    -0x1.80c4d9p-31 0x1.e5535cp-32 0x1.29a316p-31 -0x1.ff6fe8p-33"""


def _patch_gufuncs(monkeypatch, failing=None):
    """Wrap numpy's LAPACK gufuncs cholesky_lo, eigh_lo, eigvalsh_lo and
    solve, which solvers._lapack and the np.linalg wrappers call. Each
    call is recorded as (name, number of matrices), and each matrix equal
    to one in failing[name] fails as LAPACK's failures do: it comes back
    all NaN and the call sets the invalid flag. Returns the record."""
    calls = []
    failing = failing or {}
    for name in ("cholesky_lo", "eigh_lo", "eigvalsh_lo", "solve"):
        def patched(M, *args, _name=name, _gufunc=getattr(np.linalg._umath_linalg, name),
                    **kwargs):
            stack = M.reshape((-1,) + M.shape[-2:])
            calls.append((_name, len(stack)))
            out = _gufunc(M, *args, **kwargs)
            bad = [k for k, m in enumerate(stack)
                   if any(np.array_equal(m, f) for f in failing.get(_name, ()))]
            if bad:
                for x in _parts(out):
                    x[bad if M.ndim > 2 else ...] = np.nan
                # and the invalid flag, on which the public wrappers raise
                np.subtract(np.inf, np.inf)
            return out
        monkeypatch.setattr(np.linalg._umath_linalg, name, patched)
    return calls


def _parts(out):
    """A LAPACK call's result as a tuple of arrays."""
    return tuple(out) if isinstance(out, tuple) else (out,)


def _steps(calls):
    """The (Cholesky rows, eigh rows) of each step in a record of
    _patch_gufuncs that holds _tangent_step calls on finite rows only.
    A step makes one Cholesky call on every row and one solve call on
    exactly the rows that pass, then one eigh call on the others when
    there are any."""
    assert not calls or calls[0][0] == "cholesky_lo"
    firsts = [k for k, (name, _) in enumerate(calls) if name == "cholesky_lo"]
    steps = []
    for begin, end in zip(firsts, firsts[1:] + [len(calls)]):
        names = [name for name, _ in calls[begin:end]]
        rows = dict(calls[begin:end])
        eigh = rows.get("eigh_lo", 0)
        assert names == ["cholesky_lo", "solve"] + ["eigh_lo"] * (eigh > 0)
        assert rows["solve"] == rows["cholesky_lo"] - eigh
        steps.append((rows["cholesky_lo"], eigh))
    return steps


class TestTangentStep:
    @pytest.mark.parametrize("n", [2, 3, 4, 16])
    def test_basis_spans_what_the_complete_qr_basis_spans(self, n):
        # the reflections give an orthonormal basis of the QR's span: the
        # zero-sum pairs orthogonal to the gauge line (a, -b)
        ab = _random_starts(n, 10, np.random.default_rng(0))
        basis = solvers._tangent_hessian(ab[:, 0], ab[:, 1], 2.0)[0]
        eye = np.eye(2 * n - 3)
        eps = np.finfo(float).eps
        assert np.abs(np.swapaxes(basis, -2, -1) @ basis - eye).max() < 8 * eps
        for (a, b), B in zip(ab, basis):
            columns = np.zeros((2 * n, 3))
            columns[:n, 0] = columns[n:, 1] = 1.0
            columns[:, 2] = np.concatenate([a, -b])
            qr = np.linalg.qr(columns, mode="complete")[0][:, 3:]
            assert np.abs(B @ B.T - qr @ qr.T).max() < 16 * eps

    def test_gufuncs_give_nan_where_lapack_fails_and_the_wrapper_bits_elsewhere(self):
        # what _lapack relies on in the installed numpy: where the public
        # wrapper raises for the whole stack, the gufunc under it fills the
        # failing matrix with NaN and gives every other matrix the bits the
        # wrapper gives it, alone or stacked. Cholesky fails on a negative
        # definite matrix, eigh on one that is all NaN, solve on a
        # singular one
        x = np.random.default_rng(3).normal(size=(4, 5, 5))
        spd = x @ np.swapaxes(x, -2, -1) + np.eye(5)
        rhs = np.random.default_rng(4).normal(size=(5, 5, 1))
        for name, public, bad, extra in [
                ("cholesky_lo", np.linalg.cholesky, -spd[0], ()),
                ("eigh_lo", np.linalg.eigh, np.full((5, 5), np.nan), ()),
                ("solve", np.linalg.solve, np.zeros((5, 5)), (rhs,))]:
            stack = np.concatenate([spd[:2], bad[None], spd[2:]])
            with pytest.raises(np.linalg.LinAlgError):
                public(stack, *extra)
            got = _parts(solvers._lapack(name, stack, *extra))
            keep = [0, 1, 3, 4]
            whole = _parts(public(stack[keep], *(e[keep] for e in extra)))
            for k, m in enumerate(keep):
                for part, stacked, alone in zip(
                        got, whole, _parts(public(stack[m], *(e[m] for e in extra)))):
                    assert part[m].tobytes() == stacked[k].tobytes() == alone.tobytes()
            assert all(np.isnan(part[2]).all() for part in got)

    def test_step_climbs_away_from_a_saddle(self, monkeypatch):
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
        calls = _patch_gufuncs(monkeypatch)
        step = solvers._tangent_step(pa[None], pb[None], grad, 2.0)[0]
        # -H has no Cholesky factor, so the row takes eigh
        assert _steps(calls) == [(1, 1)]
        basis, H = solvers._tangent_hessian(pa[None], pb[None], 2.0)
        plain = -basis[0] @ np.linalg.solve(H[0], basis[0].T @ grad[0])
        assert grad[0] @ step > 0 > grad[0] @ plain
        assert np.allclose(step, -plain, rtol=1e-3, atol=0)

    def test_rows_get_the_floored_capped_step_of_the_reference(self, monkeypatch):
        # random draws at 2:1, several with a step longer than 1, and the
        # rank-deficient near-flat rows: each row's step is the one-row
        # reference's, an ascent direction and at most 1 long
        ab = _random_starts(4, 20, np.random.default_rng(0))
        grad = gradient(ab[:, 0], ab[:, 1], 2.0)
        step = solvers._tangent_step(ab[:, 0], ab[:, 1], grad, 2.0)
        flat_grad = gradient(NEAR_FLAT_A, NEAR_FLAT_B, 1.0)
        calls = _patch_gufuncs(monkeypatch)
        flat_step = solvers._tangent_step(NEAR_FLAT_A, NEAR_FLAT_B, flat_grad, 1.0)
        # the first row fails the pivot test, where eigh floors two |w|,
        # and takes eigh; the second takes Cholesky and solve
        assert _steps(calls) == [(2, 1)]
        for rows, grads, steps, rho in [
                (ab, grad, step, 2.0),
                (zip(NEAR_FLAT_A, NEAR_FLAT_B), flat_grad, flat_step, 1.0)]:
            reference = [_reference_step(ra, rb, g, rho)
                         for (ra, rb), g in zip(rows, grads)]
            assert [[x.hex() for x in row] for row in steps] == \
                [[x.hex() for x in row] for row in reference]
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

    def test_cholesky_step_matches_the_saddle_free_step_on_definite_rows(self, monkeypatch):
        # where H is negative definite, B (-H)^-1 B^T g and B V |w|^-1 V^T B^T g
        # are the same step: every row passes Cholesky, and with Cholesky
        # failing on every matrix every row takes eigh
        a, b = _near_maximum(8)
        grad = gradient(a, b, 2.0)
        calls = _patch_gufuncs(monkeypatch)
        solved = solvers._tangent_step(a, b, grad, 2.0)
        assert _steps(calls) == [(8, 0)]
        negH = -solvers._tangent_hessian(a, b, 2.0)[1]
        calls = _patch_gufuncs(monkeypatch, {"cholesky_lo": list(negH)})
        eigen = solvers._tangent_step(a, b, grad, 2.0)
        assert _steps(calls) == [(8, 8)]
        # the routes differ in rounding only
        assert (solved != eigen).any()
        assert (np.abs(solved - eigen).max(axis=-1)
                <= 1e-12 * np.abs(eigen).max(axis=-1)).all()

    def test_mixed_routes_give_each_row_its_one_row_bits(self, monkeypatch):
        # rows near the maximum take Cholesky and solve, the indefinite
        # random draws between them eigh: every row's step is that of its
        # one-row call and of the one-row reference
        near_a, near_b = _near_maximum(6)
        ab = _random_starts(4, 6, np.random.default_rng(0))
        a = np.stack([near_a, ab[:, 0]], axis=1).reshape(12, 4)
        b = np.stack([near_b, ab[:, 1]], axis=1).reshape(12, 4)
        grad = gradient(a, b, 2.0)
        calls = _patch_gufuncs(monkeypatch)
        step = solvers._tangent_step(a, b, grad, 2.0)
        assert _steps(calls) == [(12, 6)]
        alone = [solvers._tangent_step(a[k:k + 1], b[k:k + 1], grad[k:k + 1], 2.0)[0]
                 for k in range(12)]
        assert _steps(calls)[1:] == [(1, 0), (1, 1)] * 6
        reference = [_reference_step(a[k], b[k], grad[k], 2.0) for k in range(12)]
        assert [[x.hex() for x in row] for row in step] \
            == [[x.hex() for x in row] for row in alone] \
            == [[x.hex() for x in row] for row in reference]

    def test_singular_definite_row_takes_eigh(self, monkeypatch):
        # a point that multistart(symmetric(4, 1, 1), 50 starts, seed
        # 537874176) reached near the flat family: -H has a Cholesky
        # factor, but its least pivot is 6e-16 against a diagonal of 0.034
        # (on a QR basis it was 4e-17, and solve raised on it). The row
        # fails the pivot test and takes eigh, and the whole multistart runs
        a = np.array([[float.fromhex(x) for x in (
            "0x1.8780ccb8eea9bp-6", "0x1.77d884718833bp-5",
            "-0x1.3d52146928ff9p-3", "0x1.5cd7b36b523aep-4")]])
        b = np.array([[float.fromhex(x) for x in (
            "0x1.4c8f6a8810000p-28", "0x1.6404608f80000p-32",
            "-0x1.436ab2e290000p-29", "-0x1.8234ae3da0000p-29")]])
        H = solvers._tangent_hessian(a, b, 1.0)[1][0]
        pivots = np.diag(np.linalg.cholesky(-H)) ** 2
        assert pivots.min() < 1e-13 * np.diag(-H).max()
        grad = gradient(a, b, 1.0)
        calls = _patch_gufuncs(monkeypatch)
        step = solvers._tangent_step(a, b, grad, 1.0)
        assert _steps(calls) == [(1, 1)]
        assert np.isfinite(step).all()
        assert [x.hex() for x in step[0]] == \
            [x.hex() for x in _reference_step(a[0], b[0], grad[0], 1.0)]
        result = multistart(WeightTable.symmetric(4, 1, 1),
                            SolverConfig(starts=50, seed=537874176))
        assert {r.classification for r in result.reports} == {"degenerate"}

    def test_eigh_that_fails_on_one_row_leaves_the_others_alone(self, monkeypatch):
        # an eigh that fails on one chosen matrix, as LAPACK's does when
        # it does not converge: that row's step is NaN, and the stacked
        # call's other rows keep their bits; in a multistart the start
        # stops at its first step, unconverged, and every other report
        # keeps its bits
        weights, cfg = WeightTable.symmetric(4, 2, 1), SolverConfig(starts=12, seed=1)
        ab = _random_starts(4, 12, np.random.default_rng(1))
        a, b = ab[:, 0], ab[:, 1]
        grad = gradient(a, b, 2.0)
        plain_step = solvers._tangent_step(a, b, grad, 2.0)
        plain = multistart(weights, cfg)
        failing = solvers._tangent_hessian(a[3:4], b[3:4], 2.0)[1][0]
        # the draw is indefinite, so its step comes from eigh
        assert np.isnan(solvers._lapack("cholesky_lo", -failing[None])).all()
        _patch_gufuncs(monkeypatch, {"eigh_lo": [failing]})
        step = solvers._tangent_step(a, b, grad, 2.0)
        assert np.isnan(step[3]).all()
        assert np.isnan(_reference_step(a[3], b[3], grad[3], 2.0)).all()
        keep = [k for k in range(12) if k != 3]
        assert [[x.hex() for x in row] for row in step[keep]] == \
            [[x.hex() for x in row] for row in plain_step[keep]]
        result = multistart(weights, cfg)
        assert not result.reports[3].converged and result.reports[3].iterations == 1
        assert [_bits(result.reports[k]) for k in keep] == \
            [_bits(plain.reports[k]) for k in keep]

    def test_captured_row_whose_eigh_does_not_converge(self, monkeypatch):
        # row 3 of 33 of a step in certify(16, 2, 1, starts=50,
        # seed=538635776) when every row took eigh: its projected Hessian
        # is negative definite (top eigenvalue -0.1004 by eigvalsh), but
        # eigh raises on it with some LAPACK builds. It passes Cholesky, so
        # eigh never sees it, and in a Newton batch the other rows keep
        # their one-row bits
        a, b, g = (np.array([[float.fromhex(x) for x in row.split()]])
                   for row in (CAPTURED_A, CAPTURED_B, CAPTURED_G))
        H = solvers._tangent_hessian(a, b, 2.0)[1]
        assert np.linalg.eigvalsh(H).max() < -0.1
        calls = _patch_gufuncs(monkeypatch)
        step = solvers._tangent_step(a, b, g, 2.0)
        assert _steps(calls) == [(1, 0)] and np.isfinite(step).all()
        ab = _random_starts(16, 3, np.random.default_rng(0))
        batch = np.concatenate([a, ab[:, 0]]), np.concatenate([b, ab[:, 1]])
        ra, rb, iterations = solvers._newton(*batch, 2.0, CFG)
        for k in (1, 2, 3):
            alone = solvers._newton(batch[0][k:k + 1], batch[1][k:k + 1], 2.0, CFG)
            assert _hex_rows(ra[k:k + 1], rb[k:k + 1]) == _hex_rows(*alone[:2])
            assert iterations[k] == alone[2][0]

    def test_no_row_takes_eigh_after_its_first_definite_step(self, monkeypatch):
        # near the 2:1 maximum H is negative definite from the first
        # point, so no row takes eigh: every step is one stacked Cholesky
        # call on the live rows and a solve
        calls = _patch_gufuncs(monkeypatch)
        a, b = _near_maximum(8)
        _, _, iterations = solvers._newton(a, b, 2.0, CFG)
        assert (iterations >= 3).all()
        steps = _steps(calls)
        assert len(steps) == iterations.max() - 1
        assert [eigh for _, eigh in steps] == [0] * len(steps)
        assert sum(cholesky for cholesky, _ in steps) == (iterations - 1).sum()

    def test_one_cholesky_and_one_eigh_call_per_step(self, monkeypatch):
        # random draws, indefinite at first, and rows near the maximum in
        # one batch: each step makes one Cholesky call on every live row
        # and one eigh call on those without a factor, with no retry, and
        # the eigh rows fall as the draws reach their maxima
        ab = _random_starts(4, 12, np.random.default_rng(0))
        near_a, near_b = _near_maximum(4)
        calls = _patch_gufuncs(monkeypatch)
        _, _, iterations = solvers._newton(np.concatenate([ab[:, 0], near_a]),
                                           np.concatenate([ab[:, 1], near_b]), 2.0, CFG)
        steps = _steps(calls)
        assert len(steps) == iterations.max() - 1
        assert [cholesky for cholesky, _ in steps] == \
            [(iterations > k).sum() for k in range(1, len(steps) + 1)]
        assert steps[0][1] >= 1 and steps[-1][1] == 0
        assert all(eigh <= cholesky for cholesky, eigh in steps)

    def test_non_finite_rows_reach_no_lapack_call(self, monkeypatch):
        # at 1.7e308:1 the likelihood, gradient and Hessian overflow: no
        # warning, no raise, no non-finite matrix reaches Cholesky or eigh,
        # and every row stops at its first step, unconverged
        seen = []
        lapack = solvers._lapack

        def checked(name, *stacks):
            seen.append(all(np.isfinite(M).all() for M in stacks))
            return lapack(name, *stacks)

        monkeypatch.setattr(solvers, "_lapack", checked)
        ab = _random_starts(4, 5, np.random.default_rng(0))
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

    def test_row_whose_hessian_is_not_finite_is_unclassified(self, monkeypatch):
        # the labels take two stacked Cholesky calls and no eigenvalues. A
        # row whose projected Hessian is not finite reaches neither call,
        # where its NaN factor would read as a saddle: it is unclassified
        # and every other row keeps its label
        points = [c.point() for c in CANDS.values()]
        a = np.array([pt.a for pt in points])
        b = np.array([pt.b for pt in points])
        with monkeypatch.context() as patch:
            calls = _patch_gufuncs(patch)
            plain = _labels(a, b, 2.0)
        assert calls == [("cholesky_lo", len(points))] * 2
        assert {"local_max", "saddle"} <= set(plain)
        assert plain == [_reference_label(pt, 2.0) for pt in points]
        tangent_hessian = solvers._tangent_hessian
        for k in range(len(points)):
            def broken(a, b, rho, _k=k):
                basis, H = tangent_hessian(a, b, rho)
                H[_k, 0, 0] = np.nan
                return basis, H

            with monkeypatch.context() as patch:
                patch.setattr(solvers, "_tangent_hessian", broken)
                calls = _patch_gufuncs(patch)
                labels = _labels(a, b, 2.0)
            assert calls == [("cholesky_lo", len(points) - 1)] * 2
            assert labels == plain[:k] + ["unclassified"] + plain[k + 1:]

    def test_requires_stationarity(self):
        with pytest.raises(ValueError, match="stationary"):
            classify_stationary(RankTwoPoint.symmetric([0.3, 0.1, -0.1, -0.3]),
                                2.0)

    def test_batch_labels_each_row_as_the_reference_does(self):
        # the 2:1 candidates (local maxima and saddles) and the flat origin
        # in one batch at ratio 2; converged starts on the s = t flat
        # family are stationary only at ratio 1, so they have a batch of
        # their own: on seed 1 the first ends with a and b below
        # ZERO_POINT_TOL and the second with a just above it, but both
        # with b a^T below it. Newton at 1001:1000 from the n = 16 draw of
        # default_rng(0) converges to a point off the flat family whose
        # top projected eigenvalue, -0.99989e-7, lies inside HESSIAN_EIG_TOL
        ends = multistart(WeightTable.symmetric(4, 1, 1),
                          SolverConfig(starts=2, seed=1)).reports
        near_equal = newton_stationary(
            RankTwoPoint.of(*_random_starts(16, 1, np.random.default_rng(0))[0]), 1.001, CFG)
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

    def test_requires_n_at_least_two(self):
        # at n = 1 every start is flat and the tangent basis has no columns
        with pytest.raises(ValueError, match="n >= 2"):
            multistart(WeightTable.symmetric(1, 2, 1), SolverConfig(starts=2))

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
        # 30 of them keep a or b just above it
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

    @pytest.mark.parametrize("n, s, t, eps", [
        (4, 2, 1, 1e-6), (16, 1001, 1000, 1e-6), (16, 1001, 1000, 9.5e-5)])
    def test_clusters_are_those_of_the_row_by_row_loop(self, n, s, t, eps):
        # each converged start, in order, joins the first cluster whose
        # founder's key lies within cluster_eps, or founds one. At 9.5e-5
        # the 1001:1000 keys form 3 clusters, and some keys lie within
        # cluster_eps of a member of a cluster other than their own
        result = multistart(WeightTable.symmetric(n, s, t),
                            SolverConfig(starts=30, seed=1, cluster_eps=eps))
        converged = [r for r in result.reports if r.converged]
        keys = _cluster_keys(np.array([r.point.a for r in converged]),
                             np.array([r.point.b for r in converged]))
        founders, members = [], []
        for report, key in zip(converged, keys):
            for k, founder in enumerate(founders):
                if np.abs(founder - key).max() < eps:
                    members[k].append(report)
                    break
            else:
                founders.append(key)
                members.append([report])
        reps = [max(group, key=lambda r: r.loglik) for group in members]
        expected = sorted(((-rep.loglik, tuple(key)), len(group), rep.start)
                          for key, group, rep in zip(founders, members, reps))
        assert [((-c.loglik, c.key), c.size, c.representative.start)
                for c in result.clusters] == expected
        assert len(result.clusters) >= 2

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


class TestStructure:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("n, s, t, starts", STRUCTURE_SHAPES)
    def test_certify_structure_is_pinned(self, n, s, t, starts, seed):
        # iteration counts and the last bits of each point are not pinned:
        # a change of LAPACK route moves them. log L sums n^2 weighted logs
        # of entries near 1, each rounded to about 1e-16, so where it
        # cancels to near 0 (0 at s = t, 5e-4 at 1001:1000) the rounding
        # floor, not the search, sets how far it may move
        got = _structure(n, s, t, starts, seed)
        pinned = json.loads(STRUCTURE.read_text())[f"{n},{s},{t},{starts},{seed}"]
        best, want = got.pop("best_loglik"), pinned.pop("best_loglik")
        assert got == pinned
        assert best == pytest.approx(want, rel=1e-10, abs=1e-16 * (s * n + t * n * (n - 1)))


def _drawn_starts(monkeypatch, weights, cfg):
    """The (starts, 2, n) start rows a and b that multistart hands to
    Newton, and its result."""
    seen = []
    newton = solvers._newton

    def spy(a, b, rho, cfg):
        seen.append(np.stack([a, b], axis=1))
        return newton(a, b, rho, cfg)

    monkeypatch.setattr(solvers, "_newton", spy)
    return seen, multistart(weights, cfg)


class TestRandomStart:
    @settings(deadline=None)
    @given(st.integers(2, 16), st.integers(1, 8), st.integers(0, 2 ** 63 - 1))
    def test_one_draw_is_interior(self, n, starts, seed):
        rng = np.random.default_rng(seed)
        ab = _random_starts(n, starts, rng)
        assert ab.shape == (starts, 2, n)
        assert np.abs(ab.sum(axis=-1)).max() < 1e-12
        bound = 1 - 1.44 * (n - 1) ** 2 / n ** 3
        assert bound >= 0.78
        assert (1.0 + ab[:, 1, :, None] * ab[:, 0, None, :]).min() >= bound - 1e-12
        # exactly the two vectors of each start were drawn
        reference = np.random.default_rng(seed)
        reference.uniform(size=2 * n * starts)
        assert rng.uniform() == reference.uniform()

    def test_one_generator_per_run(self, monkeypatch):
        made = []
        default_rng = np.random.default_rng

        def counted(seed):
            made.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counted)
        multistart(WeightTable.symmetric(4, 2, 1), SolverConfig(starts=20, seed=3))
        em_multistart(swiss_counts(), 2, SolverConfig(starts=20, seed=3))
        assert made == [3, 3]

    def test_seeds_share_no_start(self, monkeypatch):
        weights = WeightTable.symmetric(4, 2, 1)
        rows = []
        for seed in (1, 2):
            seen, _ = _drawn_starts(monkeypatch, weights, SolverConfig(starts=200, seed=seed))
            rows.append({x.tobytes() for x in seen[0]})
        assert len(rows[0]) == len(rows[1]) == 200
        assert not rows[0] & rows[1]

    def test_start_k_is_the_same_at_any_start_count(self, monkeypatch):
        weights = WeightTable.symmetric(4, 2, 1)
        few_starts, few = _drawn_starts(monkeypatch, weights, SolverConfig(starts=50, seed=1))
        many_starts, many = _drawn_starts(monkeypatch, weights, SolverConfig(starts=200, seed=1))
        assert few_starts[0].tobytes() == many_starts[0][:50].tobytes()
        assert [_bits(r) for r in few.reports] == [_bits(r) for r in many.reports[:50]]
        assert [r.start for r in many.reports] == list(range(200))
        few = em_multistart(swiss_counts(), 2, SolverConfig(starts=5, seed=1))
        many = em_multistart(swiss_counts(), 2, SolverConfig(starts=20, seed=1))
        assert [_em_bits(r) for r in few.reports] == [_em_bits(r) for r in many.reports[:5]]

    @pytest.mark.parametrize("n, seed", [(4, 0), (4, 1), (16, 256000)])
    def test_start_zero_is_the_one_draw_of_the_seed(self, monkeypatch, n, seed):
        # start 0 is the (2, n) draw of default_rng(seed), centered: the
        # start a run with one start has always drawn
        seen, _ = _drawn_starts(monkeypatch, WeightTable.symmetric(n, 2, 1),
                                SolverConfig(starts=5, seed=seed))
        width = START_BOX / math.sqrt(n)
        ab = np.random.default_rng(seed).uniform(-width, width, size=(2, n))
        assert seen[0][0].tobytes() == (ab - ab.sum(axis=-1, keepdims=True) / n).tobytes()


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
        model = report.point
        matrix = np.einsum("h,hi,hj->ij", *map(np.array, (
            model.weights, model.row_cond, model.col_cond)))
        assert np.allclose(matrix / matrix.sum(), 1 / 16, atol=1e-12)

    @pytest.mark.parametrize("model", [
        UNIFORM_2,
        # class 2 has weight 0, so the M step gives it no mass and keeps
        # its conditionals; class 1, uniform, is the independence fit
        LatentClassModel.of([1, 0], [[0.25] * 4, [0.1, 0.2, 0.3, 0.4]],
                            [[0.25] * 4, [0.4, 0.3, 0.2, 0.1]])],
        ids=["uniform", "empty-class"])
    def test_fixed_point_of_a_step_and_a_cycle(self, model):
        # the EM map keeps the model, so r = v = 0, the cycle takes
        # alpha = -1, and it returns the model with the same log L
        counts = swiss_counts().as_array()
        theta = tuple(np.array(x)[None] for x in (model.weights, model.row_cond,
                                                  model.col_cond))
        step, loglik = solvers._em_step(counts, counts > 0, *theta)
        assert all((x == y).all() for x, y in zip(step, theta))
        assert loglik[0] == pytest.approx(40 * math.log(1 / 16), abs=1e-10)
        new, new_step, new_loglik = solvers._squarem_cycle(
            counts, counts > 0, theta, step, loglik)
        assert all((x == y).all() for x, y in zip(new + new_step, theta + theta))
        assert new_loglik.tolist() == loglik.tolist()

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
        report = em_fit(table, 2, SolverConfig(max_iter=max_iter, seed=2))
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
        report = em_fit(swiss_counts(), 2, SolverConfig(seed=4))
        assert report.method == "em" and report.start == 0
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
        reference = _reference_em_starts(counts, r, cfg)
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
        # em_fit runs start 0 of em_multistart with the same configuration
        for seed in (0, 7):
            cfg = replace(CFG, seed=seed)
            assert _em_bits(em_fit(swiss_counts(), 2, cfg)) \
                == _em_bits(em_multistart(swiss_counts(), 2, cfg).reports[0]) \
                == _em_bits(_reference_em(swiss_counts(), 2, cfg,
                                          np.random.default_rng(seed), 0))


class TestEMZeroCounts:
    """An all-zero row or column of counts drives P to 0 there; EM must
    stay finite (warnings are errors in the test suite), and SQUAREM's
    extrapolated trials must neither leave the simplex nor stall there."""

    @pytest.mark.parametrize("rows", [
        [[5, 0, 2], [0, 0, 0], [2, 0, 1]],
        [[5, 1, 2, 0], [1, 4, 3, 0], [2, 2, 6, 0], [0, 0, 0, 0]],
        [[5, 0, 2], [0, 4, 3], [2, 0, 0]],
        [[5, 1, 0, 0], [1, 4, 0, 0], [2, 2, 0, 0], [1, 1, 0, 0]],
    ], ids=["zero-row-and-column", "zero-border", "scattered-zeros", "zero-columns"])
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
            # the fit has zeros on the uncounted cells of a zero row or
            # column, and runs on with them
            P = np.einsum("h,hi,hj->ij", *map(np.array, (
                model.weights, model.row_cond, model.col_cond)))
            empty = (counts.sum(axis=1) == 0)[:, None] | (counts.sum(axis=0) == 0)
            assert (P[empty] == 0).all()
