"""Numerical maximizers: damped Newton on the stationarity system, a
deterministic multistart driver with clustering, and EM for the two-way
latent class model.

The stationarity system is overdetermined (2n gradient components plus
the two zero-sum constraints, with one structural dependency and a
one-parameter gauge orbit), so Newton steps are least-squares steps on
the full system augmented with a norm-balance gauge row. The zero-sum
rows are linear and therefore preserved exactly along the iteration;
the reported residual is always recomputed at the final point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .core import Convention, ConvergenceError, ProbMatrix, WeightTable
from .ranktwo import (FEASIBILITY_MARGIN, RankTwoPoint, gradient, hessian,
                      stationarity_residual)

START_BOX = 0.6
MAX_HALVINGS = 40
CLASSIFY_RESIDUAL_TOL = 1e-8
HESSIAN_EIG_TOL = 1e-7
ZERO_POINT_TOL = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    max_iter: int = 10_000
    tol: float = 1e-12
    starts: int = 200
    seed: int = 0
    cluster_eps: float = 1e-6

    def __post_init__(self):
        if self.max_iter <= 0 or self.tol <= 0 or self.starts <= 0 \
                or self.cluster_eps <= 0 or self.seed < 0:
            raise ValueError("solver configuration values must be positive")


@dataclass(frozen=True)
class LatentClassModel:
    """Mixture of r product distributions over an n x n table."""

    weights: tuple
    row_cond: tuple
    col_cond: tuple

    @property
    def r(self) -> int:
        return len(self.weights)

    @property
    def n(self) -> int:
        return len(self.row_cond[0])

    @classmethod
    def of(cls, weights, row_cond, col_cond) -> "LatentClassModel":
        return cls(tuple(float(x) for x in weights),
                   tuple(tuple(float(x) for x in row) for row in row_cond),
                   tuple(tuple(float(x) for x in row) for row in col_cond))

    def arrays(self):
        return (np.array(self.weights), np.array(self.row_cond), np.array(self.col_cond))

    def matrix(self) -> ProbMatrix:
        lam, R, C = self.arrays()
        P = np.einsum("h,hi,hj->ij", lam, R, C)
        P = P / P.sum()
        return ProbMatrix.of(P.tolist(), Convention.SUM_ONE)

    def to_json_dict(self) -> dict:
        return {"r": self.r, "n": self.n, "weights": list(self.weights),
                "row_cond": [list(r) for r in self.row_cond],
                "col_cond": [list(r) for r in self.col_cond]}


@dataclass(frozen=True)
class SolveReport:
    point: Union[RankTwoPoint, LatentClassModel]
    loglik: float
    residual: float
    iterations: int
    classification: str
    converged: bool
    method: str
    seed: Optional[int] = None
    trace: Optional[tuple] = None

    def to_json_dict(self) -> dict:
        if isinstance(self.point, RankTwoPoint):
            point = {"kind": "ranktwo", **self.point.to_json_dict()}
        else:
            point = {"kind": "latent", **self.point.to_json_dict()}
        out = {"point": point, "loglik": float(f"{self.loglik:.17g}"),
               "residual": self.residual, "iterations": self.iterations,
               "classification": self.classification, "converged": self.converged,
               "method": self.method, "seed": self.seed}
        if self.trace is not None:
            out["trace_length"] = len(self.trace)
        return out


def scaled_loglik(a: np.ndarray, b: np.ndarray, s: float, t: float) -> float:
    """s * sum(ln diag) + t * sum(ln offdiag) of the matrix 1 + b_i a_j."""
    T = 1.0 + np.outer(b, a)
    if T.min() <= 0:
        return float("-inf")
    logs = np.log(T)
    diag = np.trace(logs)
    return (s - t) * diag + t * logs.sum()


def _system(a: np.ndarray, b: np.ndarray, rho: float) -> np.ndarray:
    """Stationarity gradient, zero sums, and the norm-balance gauge row."""
    return np.concatenate([gradient(a, b, rho),
                           [a.sum(), b.sum(), 0.5 * (a @ a - b @ b)]])


def _jacobian(a: np.ndarray, b: np.ndarray, rho: float) -> np.ndarray:
    """Jacobian of _system: the Hessian over the three constraint rows."""
    n = len(a)
    rows = np.zeros((3, 2 * n))
    rows[0, :n] = 1.0
    rows[1, n:] = 1.0
    rows[2, :n] = a
    rows[2, n:] = -b
    return np.vstack([hessian(a, b, rho), rows])


def _feasible(a: np.ndarray, b: np.ndarray, margin: float = FEASIBILITY_MARGIN) -> bool:
    return (1.0 + np.outer(b, a)).min() > margin


def newton_stationary(pt0: RankTwoPoint, rho: float, cfg: SolverConfig,
                      seed: Optional[int] = None) -> SolveReport:
    """Damped least-squares Newton on the stationarity system.

    Steps are halved (up to 40 times) until they stay interior and reduce
    the system norm. Convergence means the recomputed gradient residual
    drops below cfg.tol * (n + rho - 1) in the max norm, n + rho - 1 being
    what every row of the reciprocal form of the system sums to. The
    log-likelihood uses weights (rho, 1); multistart rescales it to (s, t).
    """
    a, b = pt0.arrays()
    if not _feasible(a, b):
        raise ConvergenceError("infeasible start for Newton iteration")
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        F = _system(a, b, rho)
        resid = np.abs(F[:-1]).max()
        # iterate down to the unscaled tol: stopping at the scaled one
        # leaves some starts a step short of the scaled rule below
        if resid < cfg.tol:
            break
        J = _jacobian(a, b, rho)
        step, *_ = np.linalg.lstsq(J, -F, rcond=None)
        norm0 = np.linalg.norm(F)
        scale = 1.0
        improved = False
        for _ in range(MAX_HALVINGS):
            na = a + scale * step[:len(a)]
            nb = b + scale * step[len(a):]
            if _feasible(na, nb):
                if np.linalg.norm(_system(na, nb, rho)) < norm0 * (1.0 - 1e-4 * scale):
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
        if _feasible(a, b) else float("inf")
    converged = resid < cfg.tol * (len(a) + rho - 1)
    if max(np.abs(a).max(), np.abs(b).max()) < ZERO_POINT_TOL:
        classification = "degenerate"
    elif converged or resid < CLASSIFY_RESIDUAL_TOL:
        classification = classify_stationary(pt, rho)
    else:
        classification = "unclassified"
    return SolveReport(point=pt, loglik=scaled_loglik(a, b, rho, 1.0),
                       residual=resid, iterations=iterations,
                       classification=classification, converged=converged,
                       method="newton", seed=seed)


def _projected_ascent(pt0: RankTwoPoint, rho: float, max_iter: int = 500,
                      grad_tol: float = 1e-6) -> RankTwoPoint:
    """Backtracking gradient ascent on the scaled log-likelihood over the
    zero-sum manifold.

    Newton's basins from small random starts favor the flat saddle, so
    multistart climbs first and lets Newton finish; the ascent cannot
    settle on the flat matrix because the likelihood increases along the
    aligned direction there.
    """
    a, b = pt0.arrays()
    n = len(a)
    value = scaled_loglik(a, b, rho, 1.0)
    for _ in range(max_iter):
        grad = gradient(a, b, rho)
        da = grad[:n] - grad[:n].mean()
        db = grad[n:] - grad[n:].mean()
        norm2 = da @ da + db @ db
        if math.sqrt(norm2) < grad_tol:
            break
        scale = 1.0
        moved = False
        for _ in range(MAX_HALVINGS):
            na, nb = a + scale * da, b + scale * db
            if _feasible(na, nb):
                new_value = scaled_loglik(na, nb, rho, 1.0)
                if new_value >= value + 1e-4 * scale * norm2:
                    a, b, value = na, nb, new_value
                    moved = True
                    break
            scale *= 0.5
        if not moved:
            break
    return RankTwoPoint.of(a - a.mean(), b - b.mean())


def classify_stationary(pt: RankTwoPoint, rho: float) -> str:
    """Second-order test on the zero-sum manifold with the gauge direction
    (a, -b) quotiented out, from the analytic Hessian projected onto an
    orthonormal basis of that tangent space.

    Returns local_max when all projected Hessian eigenvalues sit below
    -1e-7, saddle when one exceeds +1e-7, degenerate for the flat origin,
    and unclassified otherwise.
    """
    a, b = pt.arrays()
    n = pt.n
    resid = np.abs(stationarity_residual(pt, rho)).max()
    if resid >= CLASSIFY_RESIDUAL_TOL:
        raise ValueError(f"point is not stationary: residual {resid:.3e}")
    if max(np.abs(a).max(), np.abs(b).max()) < ZERO_POINT_TOL:
        return "degenerate"
    gauge = np.concatenate([a, -b])
    gauge /= np.linalg.norm(gauge)
    # orthonormal basis of {sum a = 0} x {sum b = 0} minus the gauge line
    ones_a = np.concatenate([np.ones(n), np.zeros(n)]) / math.sqrt(n)
    ones_b = np.concatenate([np.zeros(n), np.ones(n)]) / math.sqrt(n)
    raw = np.eye(2 * n)
    basis_full, _ = np.linalg.qr(
        np.column_stack([ones_a, ones_b, gauge, raw]))
    basis = basis_full[:, 3:2 * n]
    eigs = np.linalg.eigvalsh(basis.T @ hessian(a, b, rho) @ basis)
    if eigs.max() < -HESSIAN_EIG_TOL:
        return "local_max"
    if eigs.max() > HESSIAN_EIG_TOL:
        return "saddle"
    return "unclassified"


def _random_start(n: int, rng: np.random.Generator,
                  tries: int = 100) -> Optional[RankTwoPoint]:
    width = START_BOX / math.sqrt(n)
    for _ in range(tries):
        a = rng.uniform(-width, width, size=n)
        b = rng.uniform(-width, width, size=n)
        a -= a.mean()
        b -= b.mean()
        if _feasible(a, b, margin=1e-6):
            return RankTwoPoint.of(a, b)
    return None


def _cluster_key(pt: RankTwoPoint) -> np.ndarray:
    """The sorted diagonal of D = b a^T, then all of D's entries sorted: a
    key unchanged by the gauge (c a, b / c), the sign (-a, -b), simultaneous
    permutation and transpose, and 1-Lipschitz in D in the max norm."""
    a, b = pt.arrays()
    D = np.outer(b, a)
    return np.concatenate([np.sort(np.diag(D)), np.sort(D, axis=None)])


@dataclass(frozen=True)
class Cluster:
    representative: SolveReport
    size: int
    loglik: float
    key: tuple

    def to_json_dict(self) -> dict:
        return {"loglik": float(f"{self.loglik:.17g}"), "size": self.size,
                "classification": self.representative.classification,
                "residual": self.representative.residual,
                "point": self.representative.point.to_json_dict()}


@dataclass(frozen=True)
class MultistartResult:
    weights: WeightTable
    best: SolveReport
    clusters: tuple
    reports: tuple
    n_failed: int
    config: SolverConfig

    def to_json_dict(self) -> dict:
        return {"weights": self.weights.to_json_dict(),
                "starts": self.config.starts, "seed": self.config.seed,
                "failed": self.n_failed,
                "best": self.best.to_json_dict(),
                "clusters": [c.to_json_dict() for c in self.clusters]}


def multistart(weights: WeightTable, cfg: SolverConfig) -> MultistartResult:
    """Deterministic seeded multistart for the rank-two problem.

    Start k draws its point from a generator seeded with seed XOR k,
    climbs briefly by projected gradient ascent and finishes with one
    Newton run, converged below cfg.tol * (n + rho - 1). Converged points
    whose _cluster_key vectors lie within cfg.cluster_eps form a cluster:
    one matrix b a^T up to simultaneous permutation and transpose.
    """
    pair = weights.symmetric_pair()
    if pair is None:
        raise ValueError("multistart requires symmetric (s, t) weights")
    s, t = float(pair[0]), float(pair[1])
    rho = s / t
    n = weights.n
    reports = []
    for k in range(cfg.starts):
        run_seed = cfg.seed ^ k
        rng = np.random.default_rng(run_seed)
        pt0 = _random_start(n, rng)
        if pt0 is None:
            continue
        report = newton_stationary(_projected_ascent(pt0, rho), rho, cfg,
                                   seed=run_seed)
        # report likelihood at the actual weights, not the t-scaled form
        a, b = report.point.arrays()
        reports.append(replace(report, loglik=scaled_loglik(a, b, s, t)))
    converged = [r for r in reports if r.converged]
    if not converged:
        raise ConvergenceError("no multistart run converged")

    clusters: list[list] = []
    keys: list[np.ndarray] = []
    for report in converged:
        key = _cluster_key(report.point)
        for idx, existing in enumerate(keys):
            if np.abs(existing - key).max() < cfg.cluster_eps:
                clusters[idx].append(report)
                break
        else:
            keys.append(key)
            clusters.append([report])

    packed = []
    for key, members in zip(keys, clusters):
        rep = max(members, key=lambda r: r.loglik)
        packed.append(Cluster(representative=rep, size=len(members),
                              loglik=rep.loglik, key=tuple(key)))
    packed.sort(key=lambda c: (-c.loglik, c.key))
    best = max(converged, key=lambda r: r.loglik)
    return MultistartResult(weights=weights, best=best, clusters=tuple(packed),
                            reports=tuple(reports),
                            n_failed=cfg.starts - len(converged), config=cfg)


def _em_init(n: int, r: int, rng: np.random.Generator):
    lam = rng.uniform(0.1, 1.0, size=r)
    lam /= lam.sum()
    R = rng.uniform(0.1, 1.0, size=(r, n))
    R /= R.sum(axis=1, keepdims=True)
    C = rng.uniform(0.1, 1.0, size=(r, n))
    C /= C.sum(axis=1, keepdims=True)
    return lam, R, C


def _em_step(counts: np.ndarray, lam, R, C):
    P = np.einsum("h,hi,hj->ij", lam, R, C)
    joint = lam[:, None, None] * R[:, :, None] * C[:, None, :]
    weighted = counts[None, :, :] * joint / P[None, :, :]
    mass = weighted.sum(axis=(1, 2))
    total = counts.sum()
    new_lam = mass / total
    safe = np.where(mass > 0, mass, 1.0)
    new_R = weighted.sum(axis=2) / safe[:, None]
    new_C = weighted.sum(axis=1) / safe[:, None]
    keep = mass == 0
    if keep.any():
        new_R[keep] = R[keep]
        new_C[keep] = C[keep]
    return new_lam, new_R, new_C


def em_fit(counts: WeightTable, r: int, cfg: SolverConfig,
           init: Optional[LatentClassModel] = None,
           seed: Optional[int] = None) -> SolveReport:
    """EM for the r-class latent model on a two-way count table.

    The E step forms class posteriors per cell, the M step re-estimates
    the mixture weights and conditionals from posterior-weighted counts;
    the count-weighted log-likelihood never decreases along the way. The
    trace of log-likelihood values is attached to the report.
    """
    if r < 1:
        raise ValueError("class count must be at least 1")
    table = counts.as_array()
    n = counts.n
    if init is not None:
        lam, R, C = init.arrays()
        if init.r != r or init.n != n:
            raise ValueError("init model shape does not match")
    else:
        rng = np.random.default_rng(0 if seed is None else seed)
        lam, R, C = _em_init(n, r, rng)

    def loglik(lam, R, C) -> float:
        P = np.einsum("h,hi,hj->ij", lam, R, C)
        if (P[table > 0] <= 0).any():
            return float("-inf")
        with np.errstate(divide="ignore"):
            logs = np.where(table > 0, np.log(np.where(P > 0, P, 1.0)), 0.0)
        return float((table * logs).sum())

    trace = [loglik(lam, R, C)]
    iterations = 0
    converged = False
    for iterations in range(1, cfg.max_iter + 1):
        lam, R, C = _em_step(table, lam, R, C)
        trace.append(loglik(lam, R, C))
        if trace[-1] - trace[-2] < cfg.tol:
            converged = True
            break
    nl, nR, nC = _em_step(table, lam, R, C)
    residual = max(np.abs(nl - lam).max(), np.abs(nR - R).max(),
                   np.abs(nC - C).max())
    model = LatentClassModel.of(lam, R, C)
    return SolveReport(point=model, loglik=trace[-1], residual=float(residual),
                       iterations=iterations, classification="unclassified",
                       converged=converged, method="em", seed=seed,
                       trace=tuple(trace))


@dataclass(frozen=True)
class EMMultistartResult:
    best: SolveReport
    reports: tuple

    def to_json_dict(self) -> dict:
        return {"best": self.best.to_json_dict(),
                "runs": [r.to_json_dict() for r in self.reports]}


def em_multistart(counts: WeightTable, r: int, cfg: SolverConfig) -> EMMultistartResult:
    """Best-of-N EM runs with per-run derived seeds."""
    reports = []
    for k in range(cfg.starts):
        reports.append(em_fit(counts, r, cfg, seed=cfg.seed ^ k))
    best = max(reports, key=lambda rep: rep.loglik)
    return EMMultistartResult(best=best, reports=tuple(reports))
