"""Numerical maximizers: saddle-free Newton on the stationarity system,
a deterministic seeded multistart with clustering, and EM for the
two-way latent class model.

A stationary point is a zero of the gradient on zero-sum pairs (a, b).
The likelihood is constant on each gauge orbit (c a, b / c), so Newton
and the labels share one tangent space: zero-sum directions orthogonal
to the gauge line (a, -b). The reported residual is always recomputed
at the final point.

The likelihood, its gradient and Hessian, Newton and the second-order
labels all take (K, n) arrays, so multistart runs its K starts in one
pass. Each row gets the bits it would get alone: per-row dot products
use np.vecdot, every expression keeps its order of operations, the
stacked Cholesky, solve, eigh and matrix products run each row's LAPACK
and BLAS calls as a 2-D call would, and which of those calls a row takes
depends on that row only. Cholesky, solve and eigh go through _lapack,
where a matrix LAPACK fails on gives NaN instead of raising for the
whole stack; the labels are two Cholesky tests, with no eigenvalues.
EM does the same with (K, r + 2rn) rows, each model's weights and row
and column conditionals as one vector [lam | R.ravel() | C.ravel()]:
the E step's table comes from one einsum over the batch, log L sums
each row's n^2 cells as one axis, the M step reduces over the same
axes as a single start does, and SQUAREM's arithmetic is on whole rows.
EM is accelerated by SQUAREM (Varadhan and Roland, "Simple and globally
convergent methods for accelerating the convergence of any EM
algorithm", Scand. J. Stat. 35, 2008), each row with its own step
length and backtracking. A run draws its starts in order from one
np.random.default_rng(cfg.seed) (PCG64), so start k is the same at any
start count above k, and a report's start k and the seed reproduce it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .core import ConvergenceError, WeightTable, require_integer
from .ranktwo import (FEASIBILITY_MARGIN, RankTwoPoint, entry_tables, hessian,
                      stationarity_residual, table_gradient)

START_BOX = 0.6
MAX_HALVINGS = 40
CLASSIFY_RESIDUAL_TOL = 1e-8
HESSIAN_EIG_TOL = 1e-7
ZERO_POINT_TOL = 1e-8
# SQUAREM step lengths a cycle tries before it falls back to two plain EM
# steps. On the bench's 8x8 table (4 seeds) 2 to 10 trials took 32k-35k
# EM-map evaluations, and 1 trial took 113k.
SQUAREM_TRIALS = 4


@dataclass(frozen=True)
class SolverConfig:
    max_iter: int = 10_000
    tol: float = 1e-12
    starts: int = 200
    seed: int = 0
    cluster_eps: float = 1e-6

    def __post_init__(self):
        for name in ("max_iter", "starts", "seed"):
            require_integer(name, getattr(self, name))
        for name in ("tol", "cluster_eps"):
            value = getattr(self, name)
            if isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
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
    start: Optional[int] = None
    trace: Optional[tuple] = None

    def to_json_dict(self) -> dict:
        if isinstance(self.point, RankTwoPoint):
            point = {"kind": "ranktwo", **self.point.to_json_dict()}
        else:
            point = {"kind": "latent", **self.point.to_json_dict()}
        out = {"point": point, "loglik": float(self.loglik),
               "residual": self.residual, "iterations": self.iterations,
               "classification": self.classification, "converged": self.converged,
               "method": self.method, "start": self.start}
        if self.trace is not None:
            out["trace_length"] = len(self.trace)
        return out


def scaled_loglik(a: np.ndarray, b: np.ndarray, s: float, t: float):
    """s * sum(ln diag) + t * sum(ln offdiag) of the matrix 1 + b_i a_j,
    or -inf when an entry is at or below FEASIBILITY_MARGIN or NaN, where
    Newton and the stationarity residual stop too.

    a and b may carry leading batch axes, (..., n) -> (...); each row gets
    the bits a 1-D call on it gives.
    """
    T = entry_tables(a, b)
    return _loglik(np.maximum(T, FEASIBILITY_MARGIN, out=T), s, t)[()]


def _loglik(T: np.ndarray, s: float, t: float) -> np.ndarray:
    """scaled_loglik of each (..., n, n) entry table T whose entries at or
    below FEASIBILITY_MARGIN are raised to it, so that no log or quotient
    of a table that is not interior meets a number <= 0: such a table,
    whose least entry is the margin or NaN, gets -inf. The logs are taken
    in place and summed over the n^2 entries as one axis, as a 1-D call's."""
    interior = T.min(axis=(-2, -1)) > FEASIBILITY_MARGIN
    logs = np.log(T, out=T)
    value = (s - t) * logs.trace(0, -2, -1) \
        + t * logs.reshape(logs.shape[:-2] + (logs.shape[-1] ** 2,)).sum(axis=-1)
    return np.where(interior, value, -np.inf)


def _value_and_gradient(a: np.ndarray, b: np.ndarray, rho: float, s: float, t: float):
    """scaled_loglik(a, b, s, t) and table_gradient(entry_tables(a, b), a, b,
    rho) of each row of the (K, n) arrays a and b, bit for bit, from one
    entry table raised to the margin: the gradient first, then the logs in
    place (_loglik). A row whose log L is not above -inf gets gradient inf."""
    T = entry_tables(a, b)
    np.maximum(T, FEASIBILITY_MARGIN, out=T)
    grad = table_gradient(T, a, b, rho)
    value = _loglik(T, s, t)
    grad[~(value > -np.inf)] = np.inf
    return value, grad


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row; np.vecdot gives the bits of a 1-D x @ x,
    which np.linalg.norm takes, where (x * x).sum(-1) and einsum do not."""
    return np.sqrt(np.vecdot(x, x))


def _balanced(a: np.ndarray, b: np.ndarray):
    """Each row of the (K, n) arrays a and b moved along its gauge orbit
    (c a, b / c) to |a| = |b|, c = sqrt(|b| / |a|); a row with a zero
    vector stays as it is."""
    norm_a, norm_b = _norm(a), _norm(b)
    c = np.sqrt(np.divide(norm_b, norm_a, out=np.ones(len(a)),
                          where=(norm_a > 0) & (norm_b > 0)))[:, None]
    return a * c, b / c


@np.errstate(over="ignore", invalid="ignore")
def _newton(a: np.ndarray, b: np.ndarray, rho: float, cfg: SolverConfig):
    """Saddle-free Newton on the tangent space, on every row of the (K, n)
    arrays a and b at once. Each row runs as if alone, with its own step,
    line search, stop test and iteration count, and drops out when its
    gradient's max norm falls below cfg.tol or its line search fails.
    Returns the end points, _balanced and centered, and the iteration
    counts.

    The step is _tangent_step's, an ascent direction everywhere that is
    the plain Newton step near a maximum: each iteration makes one
    stacked Cholesky test of every live row, solves on the rows that pass
    and takes one stacked eigh on the others. The line search halves the
    scale up to MAX_HALVINGS times, one scale per pass over the rows
    still searching (Nocedal and Wright, Numerical Optimization, Alg.
    3.1). A scale is accepted when the trial point is interior and either
    the gradient norm falls by the factor 1 - 1e-4 scale or scaled_loglik
    rises strictly above the Armijo line f + 1e-4 scale g^T d. The first
    test finishes a row at a maximum, where f's gain falls below one ulp;
    the second climbs away from saddles and the flat matrix, where |g|
    may have to grow. The rise is strict: at 1000:1 the gradient's
    rounding floor, about 3e-11, lies above cfg.tol, and steps that leave
    f unchanged would pass a non-strict test forever. A rejected trial
    that rounds back to the current point ends its row's search: every
    shorter trial is the same point, and is rejected too.

    At extreme weight ratios (from about 10^154:1) log L, the gradient's
    norm, the projected Hessian or the step can overflow. Overflow and
    invalid values do not warn here (the errstate decorator): a row whose
    value, gradient norm or step is not finite stops where it is,
    unconverged, and a row whose projected Hessian is not finite gets no
    Cholesky or eigh call.

    Each point's value and gradient are computed once, as a trial, from
    one entry table (_value_and_gradient), and the accepted ones carry
    over to the next step. Q, the zero-sum basis of every step's
    projected Hessian, is built once per n. Rows are balanced only
    at the end, for the reported gauge: at n = 2 a and b are parallel,
    and rebalancing an anti-aligned pair makes it exactly b = -a, from
    where the Newton line runs into the origin.
    """
    value, grad = _value_and_gradient(a, b, rho, rho, 1.0)
    if not (value > -np.inf).all():
        raise ConvergenceError("infeasible start for Newton iteration")
    a, b = a.copy(), b.copy()
    n = a.shape[-1]
    iterations = np.full(len(a), cfg.max_iter)
    live = np.arange(len(a))
    for it in range(1, cfg.max_iter + 1):
        # iterate down to the unscaled tol: stopping at the scaled one
        # leaves some starts a step short of the scaled rule in _reports
        done = np.abs(grad[live]).max(axis=-1) < cfg.tol
        iterations[live[done]] = it
        live = live[~done]
        if not len(live):
            break
        g = grad[live]
        step = _tangent_step(a[live], b[live], g, rho)
        norm0 = _norm(g)
        finite = np.isfinite(value[live]) & np.isfinite(norm0) \
            & np.isfinite(step).all(axis=-1)
        if not finite.all():
            iterations[live[~finite]] = it
            live, g, step, norm0 = live[finite], g[finite], step[finite], norm0[finite]
        slope = np.vecdot(g, step)
        moved = np.zeros(len(live), dtype=bool)
        rows = np.arange(len(live))
        scale = 1.0
        for _ in range(MAX_HALVINGS):
            k = live[rows]
            ak, bk = a[k], b[k]
            ta = ak + scale * step[rows, :n]
            tb = bk + scale * step[rows, n:]
            # an infeasible trial has value -inf and norm inf: it fails both
            tvalue, tgrad = _value_and_gradient(ta, tb, rho, rho, 1.0)
            accept = (_norm(tgrad) < norm0[rows] * (1.0 - 1e-4 * scale)) \
                | (tvalue > value[k] + 1e-4 * scale * slope[rows])
            back = (ta == ak).all(axis=-1) & (tb == bk).all(axis=-1)
            hit = k[accept]
            a[hit], b[hit], value[hit], grad[hit] = \
                ta[accept], tb[accept], tvalue[accept], tgrad[accept]
            moved[rows[accept]] = True
            rows = rows[~accept & ~back]
            if not len(rows):
                break
            scale *= 0.5
        iterations[live[~moved]] = it
        live = live[moved]
    a, b = _balanced(a, b)
    return (a - a.mean(axis=-1, keepdims=True),
            b - b.mean(axis=-1, keepdims=True), iterations)


def _reports(a: np.ndarray, b: np.ndarray, iterations: np.ndarray, rho: float,
             cfg: SolverConfig, s: float, t: float) -> list:
    """One SolveReport per row k (start k) of Newton's end points, with log
    L at weights (s, t), the gradient residual (inf where log L is -inf,
    at an infeasible point), the label of every row below
    CLASSIFY_RESIDUAL_TOL (the others are unclassified), each batched."""
    n = a.shape[-1]
    loglik, grad = _value_and_gradient(a, b, rho, s, t)
    resid = np.abs(grad).max(axis=-1)
    stationary = resid < CLASSIFY_RESIDUAL_TOL
    labels = iter(_labels(a[stationary], b[stationary], rho))
    converged = resid < cfg.tol * (n + rho - 1)
    reports = []
    for k, (point, value, res, its, is_stationary, conv) in enumerate(zip(
            RankTwoPoint.rows(a, b), loglik, resid.tolist(), iterations.tolist(),
            stationary.tolist(), converged.tolist())):
        report = object.__new__(SolveReport)
        # the fields the frozen dataclass's __init__ sets, one call for all
        report.__dict__.update(
            point=point, loglik=value, residual=res, iterations=its,
            classification=next(labels) if is_stationary else "unclassified",
            converged=conv, method="newton", start=k, trace=None)
        reports.append(report)
    return reports


def newton_stationary(pt0: RankTwoPoint, rho: float, cfg: SolverConfig) -> SolveReport:
    """Saddle-free Newton on the stationarity system, on the tangent space.

    Each step is _tangent_step's, halved (up to 40 times) until it stays
    interior and either reduces the gradient norm or raises the
    likelihood strictly above its Armijo line (see _newton). Convergence
    means the recomputed gradient residual drops below
    cfg.tol * (n + rho - 1) in the max norm, n + rho - 1 being what every
    row of the reciprocal form of the system sums to. Only a point with
    residual below CLASSIFY_RESIDUAL_TOL is classified; others are
    unclassified. The log-likelihood uses weights (rho, 1); multistart
    rescales it to (s, t). This is the one-row call of the kernel
    multistart runs on all its starts at once; start is None (not drawn).

    At s = t every maximum lies on the flat family b a^T = 0, whose
    stationary points are not isolated, and the starts shrink toward the
    origin, where the families a = 0 and b = 0 cross. A start whose
    matrix b a^T ends with every entry below ZERO_POINT_TOL in size is
    labelled degenerate. At (4, 1, 1) with 50 starts on seed 1 all 50 end
    degenerate, each within 11 iterations, though 30 keep a or b just
    above ZERO_POINT_TOL.
    """
    a, b = pt0.arrays()
    a, b, iterations = _newton(a[None], b[None], rho, cfg)
    return replace(_reports(a, b, iterations, rho, cfg, rho, 1.0)[0], start=None)


def _flat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows of the (K, n) arrays a and b whose matrix b a^T is flat: every
    |b_i a_j| below ZERO_POINT_TOL."""
    return np.abs(a).max(axis=-1) * np.abs(b).max(axis=-1) < ZERO_POINT_TOL


@functools.cache
def _zero_sum_basis(n: int) -> np.ndarray:
    """Q = diag(Z, Z) of _tangent_hessian for vectors of length n, built
    once per n and read-only."""
    w = np.full(n, 1.0 / math.sqrt(n))
    w[-1] += 1.0
    Q = np.zeros((2 * n, 2 * n - 2))
    Q[:n, :n - 1] = Q[n:, n - 1:] = (np.eye(n) - np.outer(w, w) / w[-1])[:, :-1]
    Q.flags.writeable = False
    return Q


def _tangent_hessian(a: np.ndarray, b: np.ndarray, rho: float):
    """For each row of the (K, n) arrays a and b, none of them zero: an
    orthonormal basis of the zero-sum tangent space {sum a = 0} x
    {sum b = 0} without the gauge line (a, -b), as (K, 2n, 2n - 3)
    columns, and the analytic Hessian projected onto it.

    Z, the first n - 1 columns of the reflection I - w w^T / w_n with
    w = 1/sqrt(n) + e_n, which sends the unit vector of ones to -e_n, is
    an orthonormal basis of the zero-sum vectors, and Q = diag(Z, Z) one
    of the tangent space. A second reflection, I - h h^T / (1 + |v_last|)
    with h = v + sign(v_last) e_last, sends the unit vector v along
    Q^T (a, -b) to the last axis, and dropping that axis leaves the
    basis. The products are stacked matmuls, so each row gets the bits
    of a 2-D call."""
    Q = _zero_sum_basis(a.shape[-1])
    h = (Q.T @ np.concatenate([a, -b], axis=-1)[:, :, None])[:, :, 0]
    h /= _norm(h)[:, None]
    top = np.abs(h[:, -1]) + 1.0
    h[:, -1] = np.copysign(top, h[:, -1])
    basis = Q[:, :-1] - (Q @ h[:, :, None]) * (h[:, None, :-1] / top[:, None, None])
    return basis, np.swapaxes(basis, -2, -1) @ hessian(a, b, rho) @ basis


def _lapack(name: str, *stacks: np.ndarray):
    """The LAPACK gufunc name of numpy.linalg (cholesky_lo, eigh_lo or
    solve, what np.linalg.cholesky, eigh and solve call on float64
    stacks) on the stacks in one call, under the wrappers' errstate but
    with invalid ignored where the wrappers raise on it. Each matrix gets
    the wrapper's bits, and one that LAPACK fails on comes back all NaN,
    where the wrapper raises LinAlgError for the whole stack; the
    wrappers' checks of shape and type are left out. The gufuncs live in
    a private module, named only here."""
    with np.errstate(all="ignore"):
        return getattr(np.linalg._umath_linalg, name)(*stacks)


def _tangent_step(a: np.ndarray, b: np.ndarray, grad: np.ndarray, rho: float):
    """The saddle-free Newton step B V |w|^-1 V^T B^T g of each row of the
    (K, n) arrays a and b, none of them zero, with gradients g = grad, B
    and H = V diag(w) V^T from _tangent_hessian, as (K, 2n) (Dauphin et
    al., "Identifying and attacking the saddle point problem in
    high-dimensional non-convex optimization", NeurIPS 2014; Nocedal and
    Wright, Numerical Optimization, 2nd ed., section 3.4).

    Taking |w| for each eigenvalue makes every step an ascent direction,
    and where H is negative definite it is the plain Newton step
    -B H^-1 B^T g, which needs no eigenvectors. So every row is first
    tested by one stacked Cholesky of -H = L L^T. -H's least eigenvalue
    is at most the least L_ii^2 and its largest at least the largest
    diagonal entry, so where that ratio is below 1e-8 eigh would floor
    some |w|, and the row takes eigh. (Near the flat family at s = t, -H
    can have a Cholesky factor with a pivot of 6e-16 against a diagonal
    of 0.034; solve then gives a step of size 1e16 along a near-null
    direction, or raises on a pivot that is exactly zero.) A row that
    passes takes the step B solve(-H, B^T g), one stacked solve; when
    every row passes, no other LAPACK call is made.

    Every other row, -H without a factor (NaN from _lapack) included,
    takes one stacked eigh: |w| is floored at 1e-8 times the largest, so
    a singular H never raises. A step longer than 1 is scaled to length
    1. A row whose H is not finite reaches neither LAPACK call, and one
    whose eigh fails gets a NaN step; _newton stops either row there,
    unconverged."""
    basis, H = _tangent_hessian(a, b, rho)
    coef = np.swapaxes(basis, -2, -1) @ grad[:, :, None]
    finite = np.isfinite(H).all(axis=(-2, -1))
    negH = -H if finite.all() else -H[finite]
    L = _lapack("cholesky_lo", negH)
    # NaN pivots, where -H has no factor, fail the comparison
    ok = (L.diagonal(0, -2, -1) ** 2).min(axis=-1) \
        >= 1e-8 * negH.diagonal(0, -2, -1).max(axis=-1)
    if finite.all() and ok.all():
        x = _lapack("solve", negH, coef)
    else:
        solved = finite.copy()
        solved[finite] = ok
        free = finite & ~solved
        x = np.full(coef.shape, np.nan)
        x[solved] = _lapack("solve", negH[ok], coef[solved])
        w, V = _lapack("eigh_lo", H[free])
        floor = 1e-8 * np.abs(w).max(axis=-1, keepdims=True)
        x[free] = V @ ((np.swapaxes(V, -2, -1) @ coef[free])
                       / np.maximum(np.abs(w), floor)[:, :, None])
    step = (basis @ x)[:, :, 0]
    return step / np.maximum(_norm(step), 1.0)[:, None]


def _labels(a: np.ndarray, b: np.ndarray, rho: float) -> list:
    """The label of each stationary row of the (K, n) arrays a and b:
    degenerate when flat, else from two stacked Cholesky tests of the
    _tangent_hessian H, with d = HESSIAN_EIG_TOL. local_max when -H - d I
    has a factor, so every eigenvalue of H lies below -d; saddle when
    d I - H has none (NaN from _lapack), so one is at least d; unclassified
    otherwise. A row whose H is not finite reaches neither call and is
    unclassified, where its NaN factor would read as a saddle."""
    flat = _flat(a, b)
    H = _tangent_hessian(a[~flat], b[~flat], rho)[1]
    finite = np.isfinite(H).all(axis=(-2, -1))
    shift = HESSIAN_EIG_TOL * np.eye(H.shape[-1])
    maximum, saddle = np.zeros((2, len(H)), dtype=bool)
    factor = _lapack("cholesky_lo", -H[finite] - shift)
    maximum[finite] = np.isfinite(factor).all(axis=(-2, -1))
    factor = _lapack("cholesky_lo", shift - H[finite])
    saddle[finite] = np.isnan(factor).any(axis=(-2, -1))
    labels = iter(np.select([maximum, saddle], ["local_max", "saddle"],
                            "unclassified").tolist())
    return ["degenerate" if is_flat else next(labels) for is_flat in flat]


def classify_stationary(pt: RankTwoPoint, rho: float) -> str:
    """The label _labels gives the one stationary point pt; raises
    ValueError when its residual is not below CLASSIFY_RESIDUAL_TOL."""
    resid = np.abs(stationarity_residual(pt, rho)).max()
    if resid >= CLASSIFY_RESIDUAL_TOL:
        raise ValueError(f"point is not stationary: residual {resid:.3e}")
    a, b = pt.arrays()
    return _labels(a[None], b[None], rho)[0]


def _random_starts(n: int, starts: int, rng: np.random.Generator) -> np.ndarray:
    """Rows a and b of each start, one uniform (starts, 2, n) block of rng
    on the box of half-width START_BOX / sqrt(n), each row centered (sum /
    n, np.mean's bits), so each entry moves at most 2 (n - 1) / n
    half-widths and 1 + b a^T >= 1 - 1.44 (n - 1)^2 / n^3 >= 0.78: always
    interior."""
    width = START_BOX / math.sqrt(n)
    ab = rng.uniform(-width, width, size=(starts, 2, n))
    return ab - ab.sum(axis=-1, keepdims=True) / n


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
        return {"loglik": float(self.loglik), "size": self.size,
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

    The starts are one _random_starts block of default_rng(cfg.seed), and
    each climbs by saddle-free Newton (_newton) until it converges below
    cfg.tol * (n + rho - 1); its iterations count the whole climb. The
    step is an ascent direction everywhere, so a start does not settle
    on a saddle or on the flat matrix b a^T = 0, where plain Newton's
    basins from small random starts lead. Every step tries a Cholesky
    test and a solve first, and only a start whose projected Hessian
    fails it takes eigh: at (16, 2, 1) with 50 starts, 177.5 of a
    multistart's 541.3 steps take eigh (mean over seeds 800-811). All
    starts climb, are labelled and get cluster keys together as
    (starts, n) arrays, each report bit-identical to running its start
    alone. The largest temporaries are the stacked Hessian and its
    products with the basis, (starts, 2n, 2n), 1.6 MB at n = 16 and 200
    starts; a line-search pass forms one (starts, n, n) table, 0.4 MB
    there. A cluster is one matrix b a^T up to simultaneous permutation
    and transpose: the first converged start not yet in a cluster founds
    one, and every such start whose _cluster_keys lie within
    cfg.cluster_eps of the founder's joins it, one vectorised pass per
    cluster, which gives the clusters a start-by-start loop gives.
    """
    if weights.n < 2:
        raise ValueError("multistart needs n >= 2")
    pair = weights.symmetric_pair()
    if pair is None:
        raise ValueError("multistart requires symmetric (s, t) weights")
    s, t = float(pair[0]), float(pair[1])
    rho = s / t
    ab = _random_starts(weights.n, cfg.starts, np.random.default_rng(cfg.seed))
    a, b, iterations = _newton(ab[:, 0], ab[:, 1], rho, cfg)
    # report likelihood at the actual weights, not the t-scaled form
    reports = _reports(a, b, iterations, rho, cfg, s, t)
    mask = [r.converged for r in reports]
    converged = [r for r in reports if r.converged]
    if not converged:
        raise ConvergenceError("no multistart run converged")

    keys = _cluster_keys(a[mask], b[mask])
    free = np.arange(len(keys))
    packed = []
    while len(free):
        near = np.abs(keys[free] - keys[free[0]]).max(axis=-1) < cfg.cluster_eps
        near[0] = True  # the founder, whatever its key
        rep = max((converged[k] for k in free[near]), key=lambda r: r.loglik)
        packed.append(Cluster(representative=rep, size=int(near.sum()),
                              loglik=rep.loglik, key=tuple(keys[free[0]])))
        free = free[~near]
    packed.sort(key=lambda c: (-c.loglik, c.key))
    best = max(converged, key=lambda r: r.loglik)
    return MultistartResult(weights=weights, best=best, clusters=tuple(packed),
                            reports=tuple(reports),
                            n_failed=cfg.starts - len(converged), config=cfg)


def _em_init(n: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """One model drawn from rng as a row [lam | R.ravel() | C.ravel()] of
    r + 2rn entries: the weights, then the row conditionals, then the
    column conditionals, each drawn and normalized in that order."""
    theta = np.empty(r * (2 * n + 1))
    lam, R, C = _parts(theta, n)
    lam[:] = rng.uniform(0.1, 1.0, size=r)
    lam /= lam.sum()
    R[:] = rng.uniform(0.1, 1.0, size=(r, n))
    R /= R.sum(axis=1, keepdims=True)
    C[:] = rng.uniform(0.1, 1.0, size=(r, n))
    C /= C.sum(axis=1, keepdims=True)
    return theta


def _parts(theta: np.ndarray, n: int):
    """Views (lam, R, C) of the (..., r + 2rn) model rows theta: the
    (..., r) weights and the (..., r, n) row and column conditionals."""
    r = theta.shape[-1] // (2 * n + 1)
    shape = theta.shape[:-1] + (r, n)
    return (theta[..., :r], theta[..., r:r + r * n].reshape(shape),
            theta[..., r + r * n:].reshape(shape))


def _em_step(counts: np.ndarray, counted: np.ndarray, theta: np.ndarray):
    """One EM update of every (K, r + 2rn) model row of theta: the next
    rows, and each row's count-weighted log-likelihood, read off the table
    P that the E step forms (-inf when a counted cell's P is not > 0).
    Only counted cells are divided by P, so the zeros an all-zero row or
    column of counts leaves in P make no NaN."""
    lam, R, C = _parts(theta, len(counts))
    P = np.einsum("kh,khi,khj->kij", lam, R, C)
    logs = np.where(counted, -np.inf, np.zeros_like(P))
    np.log(P, out=logs, where=counted & (P > 0))
    # the sum runs over the n^2 cells as one axis, as a 2-D table's does
    loglik = (counts * logs).reshape(len(P), -1).sum(axis=-1)
    weighted = lam[:, :, None, None] * R[:, :, :, None] * C[:, :, None, :] * counts
    np.divide(weighted, P[:, None], out=weighted, where=counted)
    mass = weighted.sum(axis=(-2, -1))
    out = np.empty_like(theta)
    new_lam, new_R, new_C = _parts(out, len(counts))
    np.divide(mass, counts.sum(), out=new_lam)
    empty = mass == 0
    safe = np.where(empty, 1.0, mass)[..., None]
    np.divide(weighted.sum(axis=-1), safe, out=new_R)
    np.divide(weighted.sum(axis=-2), safe, out=new_C)
    if empty.any():
        new_R[empty] = R[empty]
        new_C[empty] = C[empty]
    return out, loglik


def _squarem_cycle(counts: np.ndarray, counted: np.ndarray, theta0: np.ndarray,
                   theta1: np.ndarray, loglik0: np.ndarray):
    """One SQUAREM cycle of every model row, from theta0 with theta1 =
    F(theta0) and log L loglik0, F being _em_step. Returns the stabilized
    point F(theta'), its own step F(F(theta')) and its log L.

    With d = theta1 - theta0 and v = theta2 - 2 theta1 + theta0, where
    theta2 = F(theta1), the trial is theta' = theta0 - 2 alpha d +
    alpha^2 v, alpha = -|d|/|v| capped at -1. A trial with an entry below
    zero, or whose log L falls below loglik0, moves alpha halfway to -1;
    after SQUAREM_TRIALS trials, or once alpha is -1, the trial is theta2
    itself, two plain EM steps from theta0. Each row has its own alpha
    and its own trials."""
    theta2, _ = _em_step(counts, counted, theta1)
    d = theta1 - theta0
    v = theta2 - 2 * theta1 + theta0
    nd, nv = _norm(d), _norm(v)
    alpha = -np.maximum(np.divide(nd, nv, out=np.ones_like(nd), where=nv > 0), 1.0)
    nxt = np.empty_like(theta0)
    fallback = np.ones(len(alpha), dtype=bool)
    todo = np.flatnonzero(alpha < -1)
    for _ in range(SQUAREM_TRIALS):
        if not len(todo):
            break
        a = alpha[todo, None]
        # a huge alpha may overflow; such a trial is not finite and fails
        with np.errstate(over="ignore", invalid="ignore"):
            trial = theta0[todo] - 2 * a * d[todo] + a * a * v[todo]
        ok = ((trial >= 0) & (trial < np.inf)).all(1)
        if ok.any():
            step, loglik = _em_step(counts, counted, trial[ok])
            good = loglik >= loglik0[todo[ok]]
            rows = todo[ok][good]
            nxt[rows] = step[good]
            fallback[rows] = False
            ok[ok] = good  # ok now marks the accepted trials
        todo = todo[~ok]
        alpha[todo] = (alpha[todo] - 1) / 2
        todo = todo[alpha[todo] < -1]
    if fallback.any():
        nxt[fallback] = _em_step(counts, counted, theta2[fallback])[0]
    return (nxt, *_em_step(counts, counted, nxt))


def _em(counts: WeightTable, cfg: SolverConfig, theta: np.ndarray) -> list:
    """SQUAREM-accelerated EM from every (K, r + 2rn) _em_init row of theta
    at once, each row running as if alone: its own step length, trials,
    stop test, iteration count, trace and residual, and it drops out of
    the live rows when it stops.

    One iteration is one _squarem_cycle, and the trace holds log L at the
    start and after each cycle. A row stops when a cycle gains less than
    cfg.tol, or after cfg.max_iter cycles. A cycle can end a rounding
    error below where it began; then the row stops on its previous point
    and the trace repeats the previous value, so the trace never falls
    and its last value is the log L of the returned model. The residual
    is max |F(theta) - theta| at the returned point. Returns one
    SolveReport per row, row k as start k."""
    table = counts.as_array()
    counted = table > 0
    ends = np.empty_like(theta)
    residual = np.empty(len(theta))
    iterations = np.full(len(theta), cfg.max_iter)
    converged = np.zeros(len(theta), dtype=bool)
    step, loglik = _em_step(table, counted, theta)
    traces = [[x] for x in loglik.tolist()]
    live = np.arange(len(theta))

    def settle(rows):
        """Keep the model of the live rows that rows picks, its residual
        (the largest change the next step would make) and its trace, as a
        tuple."""
        k = live[rows]
        ends[k] = theta[rows]
        residual[k] = np.abs(step[rows] - theta[rows]).max(-1)
        for kk in k.tolist():
            traces[kk] = tuple(traces[kk])

    for it in range(1, cfg.max_iter + 1):
        last = loglik
        new, new_step, loglik = _squarem_cycle(table, counted, theta, step, last)
        fell = loglik < last
        new[fell], new_step[fell], loglik[fell] = theta[fell], step[fell], last[fell]
        theta, step = new, new_step
        for k, x in zip(live.tolist(), loglik.tolist()):
            traces[k].append(x)
        done = loglik - last < cfg.tol
        if done.any():
            iterations[live[done]] = it
            converged[live[done]] = True
            settle(done)
            going = ~done
            live, loglik, theta, step = live[going], loglik[going], theta[going], step[going]
            if not len(live):
                break
    else:
        settle(slice(None))
    return [SolveReport(point=LatentClassModel.of(*_parts(ends[k], counts.n)),
                        loglik=traces[k][-1], residual=float(residual[k]),
                        iterations=int(iterations[k]), classification="unclassified",
                        converged=bool(converged[k]), method="em", start=k,
                        trace=traces[k])
            for k in range(len(ends))]


def em_fit(counts: WeightTable, r: int, cfg: SolverConfig) -> SolveReport:
    """EM for the r-class latent model on a two-way count table,
    accelerated by SQUAREM (Varadhan and Roland, Scand. J. Stat. 35, 2008).

    The E step forms class posteriors per cell, the M step re-estimates
    the mixture weights and conditionals from posterior-weighted counts.
    Each iteration is one SQUAREM cycle: two EM steps, an extrapolated
    trial backtracked until it stays nonnegative and does not lower log L
    (else two plain EM steps), and one stabilizing EM step; max_iter caps
    cycles. The count-weighted log-likelihood never decreases along the
    way: a cycle that ends a rounding error lower stops the fit on the
    point before it. The trace of log-likelihood values is attached to
    the report. This is start 0 of em_multistart with the same cfg:
    em_multistart run with one start.
    """
    return em_multistart(counts, r, replace(cfg, starts=1)).reports[0]


@dataclass(frozen=True)
class EMMultistartResult:
    best: SolveReport
    reports: tuple

    def to_json_dict(self) -> dict:
        return {"best": self.best.to_json_dict(),
                "runs": [r.to_json_dict() for r in self.reports]}


def em_multistart(counts: WeightTable, r: int, cfg: SolverConfig) -> EMMultistartResult:
    """Best-of-N SQUAREM EM runs from the first cfg.starts _em_init draws
    of one default_rng(cfg.seed), run k from draw k. All runs iterate
    together as one (starts, r + 2rn) array of model rows, each with its
    own step length, backtracking and stop test, and each report
    bit-identical to running its draw alone through _em. The largest
    temporary is the E step's (starts, r, n, n) table, 25.6 KB for the
    4/2 table at r = 2 and 100 starts; the model rows, SQUAREM's
    differences and its trials are 14.4 KB each there."""
    require_integer("r", r)
    if r < 1:
        raise ValueError("class count must be at least 1")
    rng = np.random.default_rng(cfg.seed)
    reports = _em(counts, cfg, np.array([_em_init(counts.n, r, rng)
                                         for _ in range(cfg.starts)]))
    best = max(reports, key=lambda rep: rep.loglik)
    return EMMultistartResult(best=best, reports=tuple(reports))
