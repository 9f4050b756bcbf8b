"""Spans around calls into swissfrancs, installed from outside the package.

A Tracer wraps each function named in TARGETS. The wrapper replaces the
function under every name package code looks it up by: the globals of
each swissfrancs module (``verify.multistart``, ``cli.certify``,
``solvers.scaled_loglik``) and the attributes of its classes
(``Poly3.__mul__`` and its alias ``__rmul__``). ``uninstall`` puts the
originals back.

Each call becomes one span: name, start, end and the span open when it
began. Spans live in flat arrays in memory; ``layer_metrics`` turns them
into the per-layer metrics of LAYER_METRICS, and ``write_spans`` stores
them when the run ends. A span's self time is its duration minus the
durations of its direct children. Only calls made on the thread that
installed the tracer are recorded; the f3 scan's worker threads call no
wrapped function.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import statistics
import sys
import threading
from array import array
from time import perf_counter

# Every wrapped function, as <module>.<attribute path> inside swissfrancs.
TARGETS = (
    "solvers.multistart",
    "solvers.newton_stationary",
    "solvers.classify_stationary",
    "solvers.scaled_loglik",
    "solvers.em_multistart",
    "solvers.em_fit",
    "ranktwo.stationarity_residual",
    "ranktwo.canonicalize",
    "ranktwo.reciprocal_residual_exact",
    "candidates.enumerate_n4",
    "candidates.global_candidate",
    "candidates.block_matrix",
    "candidates.corner_matrix",
    "polys.Poly3.__mul__",
    "polys.Poly3.divide",
    "verify.certify",
    "verify.f3_region_scan",
    "verify.lemma_a2_factorization",
    "verify.f_polynomial",
    "core.log_likelihood",
    "core.convert_convention",
    "cli.main",
)

# EM runs within this distance of the best run count as global hits.
EM_HIT_TOL = 1e-6

# Per-layer metrics: name, unit, which direction is better, and the
# end-to-end metric and workload a change in the layer should move.
LAYER_METRICS = (
    ("solvers.multistart.self_s", "s", "lower",
     "pass_s on n4-certificate and hard-certificates; no change on side-checks"),
    ("solvers.scaled_loglik.calls.ascent", "count", "lower",
     "pass_s; (4,100,1) in hard-certificates and n4-certificate"),
    ("solvers.scaled_loglik.calls.classify", "count", "lower",
     "pass_s; (16,2,1) in hard-certificates"),
    ("solvers.scaled_loglik.self_s", "s", "lower", "pass_s on both certificate workloads"),
    ("solvers.newton_stationary.calls", "count", "lower", "pass_s on n4-certificate"),
    ("solvers.newton_stationary.self_s", "s", "lower", "pass_s on n4-certificate"),
    ("solvers.newton_stationary.iterations", "count", "lower", "pass_s on n4-certificate"),
    ("solvers.newton_stationary.p50_s", "s", "lower", "pass_s on n4-certificate"),
    ("solvers.newton_stationary.p90_s", "s", "lower", "pass_s on n4-certificate"),
    ("solvers.fallback_ratio", "ratio", "lower", "pass_s on hard-certificates"),
    ("solvers.classify_stationary.calls", "count", "lower",
     "pass_s on hard-certificates; about 8% of n4-certificate"),
    ("solvers.classify_stationary.self_s", "s", "lower",
     "pass_s on hard-certificates; about 8% of n4-certificate"),
    ("solvers.failed_start_ratio", "ratio", "lower",
     "success_ratio and pass_s on hard-certificates"),
    ("solvers.best_hit_ratio", "ratio", "higher",
     "success_ratio and pass_s on hard-certificates"),
    ("solvers.clusters", "count", "lower", "success_ratio and pass_s on hard-certificates"),
    ("solvers.em_fit.calls", "count", "lower", "em_s on side-checks only"),
    ("solvers.em_fit.self_s", "s", "lower", "em_s on side-checks only"),
    ("solvers.em_fit.iterations", "count", "lower", "em_s on side-checks only"),
    ("solvers.em_fit.global_hit_ratio", "ratio", "higher", "em_s on side-checks only"),
    ("ranktwo.stationarity_residual.calls", "count", "lower", "pass_s"),
    ("ranktwo.stationarity_residual.self_s", "s", "lower", "pass_s"),
    ("ranktwo.canonicalize.calls", "count", "lower", "pass_s"),
    ("ranktwo.canonicalize.self_s", "s", "lower", "pass_s"),
    ("ranktwo.reciprocal_residual_exact.self_s", "s", "lower", "pass_s"),
    ("candidates.enumerate_n4.self_s", "s", "lower",
     "algebra_s on side-checks; under 1% of pass_s"),
    ("candidates.global_candidate.self_s", "s", "lower",
     "algebra_s on side-checks; under 1% of pass_s"),
    ("candidates.block_matrix.self_s", "s", "lower", "under 1% of pass_s on hard-certificates"),
    ("candidates.corner_matrix.self_s", "s", "lower", "under 1% of pass_s on hard-certificates"),
    ("polys.Poly3.__mul__.calls", "count", "lower", "algebra_s on side-checks"),
    ("polys.Poly3.__mul__.self_s", "s", "lower", "algebra_s on side-checks"),
    ("polys.Poly3.divide.calls", "count", "lower", "algebra_s on side-checks"),
    ("polys.Poly3.divide.self_s", "s", "lower", "algebra_s on side-checks"),
    ("verify.certify.self_s", "s", "lower", "pass_s on both certificate workloads"),
    ("verify.f3_region_scan.self_s", "s", "lower", "scan_s on side-checks"),
    ("verify.f3_region_scan.points_per_s", "1/s", "higher", "scan_s on side-checks"),
    ("verify.lemma_a2_factorization.self_s", "s", "lower", "algebra_s on side-checks"),
    ("verify.f_polynomial.self_s", "s", "lower", "algebra_s on side-checks"),
    ("core.log_likelihood.calls", "count", "lower", "pass_s"),
    ("core.log_likelihood.self_s", "s", "lower", "pass_s"),
    ("core.convert_convention.self_s", "s", "lower", "pass_s"),
    ("cli.main.self_s", "s", "lower", "pass_s on n4-certificate only"),
    ("side_checks.em_s", "s", "lower", "em_s on side-checks (untraced passes)"),
    ("side_checks.scan_s", "s", "lower", "scan_s on side-checks (untraced passes)"),
    ("side_checks.algebra_s", "s", "lower", "algebra_s on side-checks (untraced passes)"),
    ("trace.overhead_s", "s", "lower",
     "none: traced minus untraced pass, in reference units times the mean kernel time"),
    ("trace.overhead_ratio", "ratio", "lower",
     "none: traced minus untraced pass over untraced, in reference units"),
)


def _hook_multistart(counters, args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    counters["starts"] += cfg.starts
    if result is not None:
        counters["failed_starts"] += result.n_failed
        counters["clusters"] += len(result.clusters)
        counters["best_hits"] += result.clusters[0].size
    else:
        counters["failed_starts"] += cfg.starts


def _hook_newton(counters, args, kwargs, result):
    if result is not None:
        counters["newton_iterations"] += result.iterations


def _hook_em_fit(counters, args, kwargs, result):
    if result is not None:
        counters["em_iterations"] += result.iterations


def _hook_em_multistart(counters, args, kwargs, result):
    if result is not None:
        best = result.best.loglik
        counters["em_runs"] += len(result.reports)
        counters["em_hits"] += sum(1 for r in result.reports if r.loglik >= best - EM_HIT_TOL)


def _hook_scan(counters, args, kwargs, result):
    if result is not None:
        counters["scan_points"] += result.n_points


HOOKS = {
    "solvers.multistart": _hook_multistart,
    "solvers.newton_stationary": _hook_newton,
    "solvers.em_fit": _hook_em_fit,
    "solvers.em_multistart": _hook_em_multistart,
    "verify.f3_region_scan": _hook_scan,
}

# Ratio and count metrics that are not named after the layer they measure.
RATIO_LAYERS = {
    "solvers.fallback_ratio": "solvers.multistart",
    "solvers.failed_start_ratio": "solvers.multistart",
    "solvers.best_hit_ratio": "solvers.multistart",
    "solvers.clusters": "solvers.multistart",
}

COUNTERS = ("starts", "failed_starts", "clusters", "best_hits", "newton_iterations",
            "em_iterations", "em_runs", "em_hits", "scan_points")


class Tracer:
    """In-memory spans and counters for calls into swissfrancs."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.enabled = False
        self._stack = [-1]
        self._undo: list = []
        self._thread = threading.get_ident()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        tid = self._name_id(name)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled or threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(tid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
                if hook is not None:
                    hook(self.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target under each name that refers to it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "swissfrancs" or name.startswith("swissfrancs.")]
        containers = list(modules)
        for module in modules:
            containers += [v for v in vars(module).values()
                           if isinstance(v, type) and v.__module__ == module.__name__]
        try:
            for target in TARGETS:
                module_name, _, path = target.partition(".")
                owner = importlib.import_module(f"swissfrancs.{module_name}")
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                wrapper = self._wrap(target, original)
                for container in containers:
                    for key, value in list(vars(container).items()):
                        if value is original:
                            setattr(container, key, wrapper)
                            self._undo.append((container, key, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            container, key, original = self._undo.pop()
            setattr(container, key, original)

    def recording(self, call):
        """``call`` with span recording on while it runs, so the checks a
        case makes on its output stay out of the trace."""
        def recorded():
            self.enabled = True
            try:
                return call()
            finally:
                self.enabled = False
        return recorded

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def span_table(self):
        """(name ids, parents, durations, self times) as numpy arrays."""
        import numpy as np
        names = np.frombuffer(self.name_id, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return names, parent, dur, dur - child

    def layer_metrics(self) -> tuple[dict, dict]:
        """The span- and counter-based metrics of LAYER_METRICS for one
        pass, and the reason for each one whose layer never ran.

        The side_checks.* and trace.* metrics come from the harness.
        """
        import numpy as np
        names, parent, dur, self_time = self.span_table()
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self_time, minlength=k)
        incl_s = np.bincount(names, weights=dur, minlength=k)
        c = self.counters

        def count(name):
            return int(calls[self._ids[name]]) if name in self._ids else 0

        def calls_under(name, parent_name):
            if count(name) == 0 or count(parent_name) == 0:
                return 0
            mask = (names == self._ids[name]) & (parent >= 0)
            return int((names[parent[mask]] == self._ids[parent_name]).sum())

        def ratio(num, den):
            return num / den if den else 0.0

        newton = dur[names == self._ids.get("solvers.newton_stationary", -1)]
        scan_s = float(incl_s[self._ids["verify.f3_region_scan"]]) \
            if count("verify.f3_region_scan") else 0.0
        special = {
            "solvers.scaled_loglik.calls.ascent":
                calls_under("solvers.scaled_loglik", "solvers.multistart"),
            "solvers.scaled_loglik.calls.classify":
                calls_under("solvers.scaled_loglik", "solvers.classify_stationary"),
            "solvers.newton_stationary.iterations": c["newton_iterations"],
            "solvers.newton_stationary.p50_s":
                float(np.percentile(newton, 50)) if len(newton) else 0.0,
            "solvers.newton_stationary.p90_s":
                float(np.percentile(newton, 90)) if len(newton) else 0.0,
            "solvers.fallback_ratio":
                ratio(count("solvers.newton_stationary") - c["starts"], c["starts"]),
            "solvers.failed_start_ratio": ratio(c["failed_starts"], c["starts"]),
            "solvers.best_hit_ratio": ratio(c["best_hits"], c["starts"]),
            "solvers.clusters": c["clusters"],
            "solvers.em_fit.iterations": c["em_iterations"],
            "solvers.em_fit.global_hit_ratio": ratio(c["em_hits"], c["em_runs"]),
            "verify.f3_region_scan.points_per_s": ratio(c["scan_points"], scan_s),
        }
        metrics, missing = {}, {}
        for name, _, _, _ in LAYER_METRICS:
            layer = layer_of(name)
            if layer is None:
                continue
            if name in special:
                metrics[name] = special[name]
            elif name.endswith(".calls"):
                metrics[name] = count(layer)
            else:
                metrics[name] = float(self_s[self._ids[layer]]) if count(layer) else 0.0
            if count(layer) == 0:
                missing[name] = f"{layer} was not called"
        return metrics, missing

    def write_spans(self, path: str) -> None:
        """Write the spans as gzip CSV: name, start and end in seconds
        from the first span, and the parent's row index (-1 for none)."""
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]},{self.start[i] - origin:.9f},"
                         f"{self.end[i] - origin:.9f},{self.parent[i]}\n")


def layer_of(name: str):
    """The wrapped function whose calls a span-based metric measures, or
    None for metrics the harness supplies."""
    if name in RATIO_LAYERS:
        return RATIO_LAYERS[name]
    matches = [t for t in TARGETS if name.startswith(t + ".")]
    return max(matches, key=len) if matches else None


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over the traced passes."""
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
