"""Numerical maximizers: damped Newton on the stationarity system, a
deterministic multistart driver with clustering, and EM for the two-way
latent class model.

The stationarity system is overdetermined (2n gradient components plus
the two zero-sum constraints, with one structural dependency and a
one-parameter gauge orbit), so Newton steps are least-squares steps on
the full system augmented with a norm-balance gauge row. The zero-sum
rows are linear and therefore preserved exactly along the iteration;
the reported residual is always recomputed at the final point.

The likelihood, its gradient and Hessian, the ascent, Newton and the
second-order labels all take (K, n) arrays, so multistart runs its K
starts in one pass. Each row gets the bits it would get alone: per-row
dot products use np.vecdot, every expression keeps its order of
operations, and least squares runs per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import Convention, ConvergenceError, ProbMatrix, WeightTable
from .ranktwo import (FEASIBILITY_MARGIN, RankTwoPoint, entry_tables, gradient,
                      hessian, stationarity_residual)

START_BOX = 0.6
MAX_HALVINGS = 40
# Line-search trial scales 2^-k: exactly the values repeated halving gives.
_SCALES = np.ldexp(1.0, -np.arange(MAX_HALVINGS))
_LINE_SEARCH_BLOCK = 8
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
        for name in ("tol", "cluster_eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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


def scaled_loglik(a: np.ndarray, b: np.ndarray, s: float, t: float):
    """s * sum(ln diag) + t * sum(ln offdiag) of the matrix 1 + b_i a_j,
    or -inf when an entry is at or below FEASIBILITY_MARGIN, where Newton
    and the stationarity residual stop too.

    a and b may carry leading batch axes, (..., n) -> (...); each row gets
    the bits a 1-D call on it gives, and no log of an infeasible row is
    taken.
    """
    T = entry_tables(a, b)
    ok = T.min(axis=(-2, -1)) > FEASIBILITY_MARGIN
    out = np.full(ok.shape, -np.inf)
    logs = T[ok]
    np.log(logs, out=logs)
    # the sum runs over the n^2 entries as one axis, as a 1-D call's does
    out[ok] = (s - t) * logs.trace(0, -2, -1) \
        + t * logs.reshape(len(logs), T.shape[-1] ** 2).sum(axis=-1)
    return out[()]


def _system(a: np.ndarray, b: np.ndarray, rho: float) -> np.ndarray:
    """Stationarity gradient, zero sums, and the norm-balance gauge row."""
    gauge = 0.5 * (np.vecdot(a, a) - np.vecdot(b, b))
    return np.concatenate([gradient(a, b, rho), a.sum(axis=-1, keepdims=True),
                           b.sum(axis=-1, keepdims=True), gauge[..., None]], axis=-1)


def _jacobian(a: np.ndarray, b: np.ndarray, rho: float) -> np.ndarray:
    """Jacobian of _system: the Hessian over the three constraint rows."""
    n = a.shape[-1]
    rows = np.zeros(a.shape[:-1] + (3, 2 * n))
    rows[..., 0, :n] = 1.0
    rows[..., 1, n:] = 1.0
    rows[..., 2, :n] = a
    rows[..., 2, n:] = -b
    return np.concatenate([hessian(a, b, rho), rows], axis=-2)


def _feasible(a: np.ndarray, b: np.ndarray):
    return entry_tables(a, b).min(axis=(-2, -1)) > FEASIBILITY_MARGIN


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row; np.vecdot gives the bits of a 1-D x @ x,
    which np.linalg.norm takes, where (x * x).sum(-1) and einsum do not."""
    return np.sqrt(np.vecdot(x, x))


def _line_search(trial, m: int):
    """The first of the trial scales _SCALES each of m rows accepts, as an
    index (-1 when none does), and the value trial gave there.

    trial(rows, scales) returns (accepted, value), each of shape
    (len(rows), len(scales)). Every row tries the full step; the rows that
    reject it try the remaining halvings _LINE_SEARCH_BLOCK at a time, which
    keeps the long searches near the boundary to a few calls and bounds
    the temporaries. A row's answer is the one a loop trying one scale at a
    time gives.
    """
    first = np.full(m, -1)
    value = np.empty(m)
    rows = np.arange(m)
    lo, hi = 0, 1
    while len(rows) and lo < MAX_HALVINGS:
        accepted, trial_value = trial(rows, _SCALES[lo:hi])
        hit = accepted.any(axis=1)
        k = accepted[hit].argmax(axis=1)
        first[rows[hit]] = lo + k
        value[rows[hit]] = trial_value[hit][np.arange(len(k)), k]
        rows = rows[~hit]
        lo, hi = hi, hi + _LINE_SEARCH_BLOCK
    return first, value


def _newton(a: np.ndarray, b: np.ndarray, rho: float, cfg: SolverConfig):
    """Damped least-squares Newton on every row of the (K, n) arrays a and
    b at once. Each row runs as if alone, with its own step, line search,
    stop test and iteration count, and drops out when it stops. Returns
    the end points, centered, and the iteration counts.
    """
    if not _feasible(a, b).all():
        raise ConvergenceError("infeasible start for Newton iteration")
    a, b = a.copy(), b.copy()
    n = a.shape[-1]
    iterations = np.full(len(a), cfg.max_iter)
    live = np.arange(len(a))
    for it in range(1, cfg.max_iter + 1):
        F = _system(a[live], b[live], rho)
        # iterate down to the unscaled tol: stopping at the scaled one
        # leaves some starts a step short of the scaled rule below
        done = np.abs(F[:, :-1]).max(axis=-1) < cfg.tol
        iterations[live[done]] = it
        live, F = live[~done], F[~done]
        if not len(live):
            break
        la, lb = a[live], b[live]
        J = _jacobian(la, lb, rho)
        # numpy has no stacked least squares, and a normal-equations or
        # pinv solve changes the bits and is ill-conditioned near the edge
        step = np.array([np.linalg.lstsq(Jk, -Fk, rcond=None)[0]
                         for Jk, Fk in zip(J, F)])
        norm0 = _norm(F)

        def trial(rows, scales):
            ta = la[rows, None] + scales[:, None] * step[rows, None, :n]
            tb = lb[rows, None] + scales[:, None] * step[rows, None, n:]
            feasible = _feasible(ta, tb)
            norm = np.full(feasible.shape, np.inf)
            norm[feasible] = _norm(_system(ta[feasible], tb[feasible], rho))
            return feasible & (norm < norm0[rows, None] * (1.0 - 1e-4 * scales)), norm

        first, _ = _line_search(trial, len(live))
        moved = first >= 0
        scales = _SCALES[first[moved], None]
        a[live[moved]] = la[moved] + scales * step[moved, :n]
        b[live[moved]] = lb[moved] + scales * step[moved, n:]
        iterations[live[~moved]] = it
        live = live[moved]
    return (a - a.mean(axis=-1, keepdims=True),
            b - b.mean(axis=-1, keepdims=True), iterations)


def _reports(a: np.ndarray, b: np.ndarray, iterations: np.ndarray, rho: float,
             cfg: SolverConfig, s: float, t: float, seeds) -> list:
    """One SolveReport per row of Newton's end points, with the gradient
    residual, the label of every row below CLASSIFY_RESIDUAL_TOL (the
    others are unclassified) and log L at weights (s, t), each from one
    batched call."""
    n = a.shape[-1]
    feasible = _feasible(a, b)
    resid = np.full(len(a), np.inf)
    resid[feasible] = np.abs(gradient(a[feasible], b[feasible], rho)).max(axis=-1)
    stationary = resid < CLASSIFY_RESIDUAL_TOL
    labels = iter(_labels(a[stationary], b[stationary], rho))
    converged = resid < cfg.tol * (n + rho - 1)
    loglik = scaled_loglik(a, b, s, t)
    return [SolveReport(
        point=RankTwoPoint.of(a[k], b[k]), loglik=loglik[k], residual=float(resid[k]),
        iterations=int(iterations[k]),
        classification=next(labels) if stationary[k] else "unclassified",
        converged=bool(converged[k]), method="newton", seed=seed)
        for k, seed in enumerate(seeds)]


def newton_stationary(pt0: RankTwoPoint, rho: float, cfg: SolverConfig,
                      seed: Optional[int] = None) -> SolveReport:
    """Damped least-squares Newton on the stationarity system.

    Steps are halved (up to 40 times) until they stay interior and reduce
    the system norm. Convergence means the recomputed gradient residual
    drops below cfg.tol * (n + rho - 1) in the max norm, n + rho - 1 being
    what every row of the reciprocal form of the system sums to. Only a
    point with residual below CLASSIFY_RESIDUAL_TOL is classified; others
    are unclassified. The log-likelihood uses weights (rho, 1); multistart
    rescales it to (s, t). This is the one-row call of the kernel
    multistart runs on all its starts at once.

    At s = t a start ends near the flat family b a^T = 0, whose
    stationary points are not isolated. The gauge row 0.5 (|a|^2 - |b|^2)
    then has a double root at the origin and the Jacobian drops to rank
    2n - 2, so each step only halves |a| and the gradient residual, of
    order |a|^2 |b|, falls fourfold: about 11 iterations where a regular
    optimum, at s > t, takes 3.
    """
    a, b = pt0.arrays()
    a, b, iterations = _newton(a[None], b[None], rho, cfg)
    return _reports(a, b, iterations, rho, cfg, rho, 1.0, [seed])[0]


def _projected_ascent(a: np.ndarray, b: np.ndarray, rho: float,
                      max_iter: int = 500, grad_tol: float = 1e-6):
    """Backtracking gradient ascent on the scaled log-likelihood over the
    zero-sum manifold, on every row of the feasible (K, n) arrays a and b
    at once; each row runs as if alone and drops out when it stops.
    Returns the end points, centered.

    Newton's basins from small random starts favor the flat saddle, so
    multistart climbs first and lets Newton finish; the ascent cannot
    settle on the flat matrix because the likelihood increases along the
    aligned direction there.
    """
    a, b = a.copy(), b.copy()
    n = a.shape[-1]
    value = scaled_loglik(a, b, rho, 1.0)
    live = np.arange(len(a))
    for _ in range(max_iter):
        grad = gradient(a[live], b[live], rho)
        da = grad[:, :n] - grad[:, :n].mean(axis=-1, keepdims=True)
        db = grad[:, n:] - grad[:, n:].mean(axis=-1, keepdims=True)
        norm2 = np.vecdot(da, da) + np.vecdot(db, db)
        going = ~(np.sqrt(norm2) < grad_tol)
        live, da, db, norm2 = live[going], da[going], db[going], norm2[going]
        if not len(live):
            break
        la, lb, lv = a[live], b[live], value[live]

        def trial(rows, scales):
            values = scaled_loglik(la[rows, None] + scales[:, None] * da[rows, None],
                                   lb[rows, None] + scales[:, None] * db[rows, None],
                                   rho, 1.0)
            return values >= lv[rows, None] + 1e-4 * scales * norm2[rows, None], values

        first, new_value = _line_search(trial, len(live))
        moved = first >= 0
        scales = _SCALES[first[moved], None]
        a[live[moved]] = la[moved] + scales * da[moved]
        b[live[moved]] = lb[moved] + scales * db[moved]
        value[live[moved]] = new_value[moved]
        live = live[moved]
    return a - a.mean(axis=-1, keepdims=True), b - b.mean(axis=-1, keepdims=True)


def _labels(a: np.ndarray, b: np.ndarray, rho: float) -> list:
    """The label of each stationary row of the (K, n) arrays a and b:
    degenerate when flat, else from the analytic Hessian projected onto an
    orthonormal basis of the zero-sum tangent space without the gauge line
    (a, -b): local_max when all its eigenvalues sit below -HESSIAN_EIG_TOL,
    saddle when one exceeds +HESSIAN_EIG_TOL, and unclassified otherwise."""
    n = a.shape[-1]
    flat = np.maximum(np.abs(a).max(axis=-1), np.abs(b).max(axis=-1)) < ZERO_POINT_TOL
    a, b = a[~flat], b[~flat]
    gauge = np.concatenate([a, -b], axis=-1)
    gauge /= _norm(gauge)[:, None]
    # orthonormal basis of {sum a = 0} x {sum b = 0} minus the gauge line
    columns = np.zeros((len(a), 2 * n, 2 * n + 3))
    columns[:, :n, 0] = columns[:, n:, 1] = 1.0 / math.sqrt(n)
    columns[:, :, 2] = gauge
    columns[:, :, 3:] = np.eye(2 * n)
    basis = np.linalg.qr(columns)[0][..., 3:2 * n]
    top = np.zeros(len(flat))
    top[~flat] = np.linalg.eigvalsh(
        np.swapaxes(basis, -2, -1) @ hessian(a, b, rho) @ basis).max(axis=-1)
    return ["degenerate" if is_flat else "local_max" if e < -HESSIAN_EIG_TOL
            else "saddle" if e > HESSIAN_EIG_TOL else "unclassified"
            for is_flat, e in zip(flat, top)]


def classify_stationary(pt: RankTwoPoint, rho: float) -> str:
    """The label _labels gives the one stationary point pt; raises
    ValueError when its residual is not below CLASSIFY_RESIDUAL_TOL."""
    resid = np.abs(stationarity_residual(pt, rho)).max()
    if resid >= CLASSIFY_RESIDUAL_TOL:
        raise ValueError(f"point is not stationary: residual {resid:.3e}")
    a, b = pt.arrays()
    return _labels(a[None], b[None], rho)[0]


def _random_start(n: int, rng: np.random.Generator) -> np.ndarray:
    """The rows a and b of one (2, n) draw from the box of half-width
    START_BOX / sqrt(n), centered, so each entry moves at most 2 (n - 1) / n
    half-widths and 1 + b a^T >= 1 - 1.44 (n - 1)^2 / n^3 >= 0.78: always
    interior."""
    width = START_BOX / math.sqrt(n)
    ab = rng.uniform(-width, width, size=(2, n))
    return ab - ab.mean(axis=-1, keepdims=True)


def _cluster_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each row of the (K, n) arrays a and b, the sorted diagonal of
    D = b a^T, then all of D's entries sorted: a key unchanged by the gauge
    (c a, b / c), the sign (-a, -b), simultaneous permutation and
    transpose, and 1-Lipschitz in D in the max norm."""
    D = b[:, :, None] * a[:, None, :]
    return np.concatenate([np.sort(D.diagonal(0, -2, -1), axis=-1),
                           np.sort(D.reshape(len(D), -1), axis=-1)], axis=-1)


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
    Newton run, converged below cfg.tol * (n + rho - 1). All starts climb,
    finish, are labelled and get cluster keys together as (starts, n)
    arrays, each report bit-identical to running its start alone; the
    largest temporary, the line search's (starts, 8, n, n) table, is
    3.3 MB at n = 16 and 200 starts. Converged points whose _cluster_keys
    lie within cfg.cluster_eps form a cluster: one matrix b a^T up to
    simultaneous permutation and transpose.
    """
    pair = weights.symmetric_pair()
    if pair is None:
        raise ValueError("multistart requires symmetric (s, t) weights")
    s, t = float(pair[0]), float(pair[1])
    rho = s / t
    seeds = [cfg.seed ^ k for k in range(cfg.starts)]
    ab = np.array([_random_start(weights.n, np.random.default_rng(seed))
                   for seed in seeds])
    a, b = _projected_ascent(ab[:, 0], ab[:, 1], rho)
    a, b, iterations = _newton(a, b, rho, cfg)
    # report likelihood at the actual weights, not the t-scaled form
    reports = _reports(a, b, iterations, rho, cfg, s, t, seeds)
    mask = [r.converged for r in reports]
    converged = [r for r in reports if r.converged]
    if not converged:
        raise ConvergenceError("no multistart run converged")

    clusters: list[list] = []
    keys: list[np.ndarray] = []
    for report, key in zip(converged, _cluster_keys(a[mask], b[mask])):
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
    """One EM update: the next (lam, R, C), and the count-weighted
    log-likelihood of the given ones, read off the table P that the E step
    forms (-inf when a counted cell has P <= 0)."""
    P = np.einsum("h,hi,hj->ij", lam, R, C)
    if (P[counts > 0] <= 0).any():
        loglik = float("-inf")
    else:
        with np.errstate(divide="ignore"):
            logs = np.where(counts > 0, np.log(np.where(P > 0, P, 1.0)), 0.0)
        loglik = float((counts * logs).sum())
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
    return (new_lam, new_R, new_C), loglik


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

    step, loglik = _em_step(table, lam, R, C)
    trace = [loglik]
    iterations = 0
    converged = False
    for iterations in range(1, cfg.max_iter + 1):
        lam, R, C = step
        step, loglik = _em_step(table, lam, R, C)
        trace.append(loglik)
        if trace[-1] - trace[-2] < cfg.tol:
            converged = True
            break
    nl, nR, nC = step
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
