"""Time the same calls on two source trees of swissfrancs in one process.

    git archive BASE src | tar -x -C DIR
    python tools/inprocess_ab.py --base DIR/src [--change src] [--rounds 40]
                                 [--case SUBSTRING ...]

Each tree's package is imported under its own name, swissfrancs_base and
swissfrancs_change, so both live in one interpreter and share its
placement: the core it runs on, its caches and its memory layout. Fresh
processes do not: on a shared 2-core machine an unchanged f3 scan read
465-600 ms in fresh processes of one tree against 326-420 ms in those of
another, and 501 against 489 ms with both trees in one process.

Every case prepares its inputs outside the timed region, then runs once on
each side as a warm-up. Each of the rounds calls it once on each side,
the sides taking turns to go first. The table gives each side's median
time per call, the median of the per-round ratios change / base, and the
rounds in which the change was faster. Every run then prints whether the
two trees' multistart reports agree bit for bit on IDENTITY_SHAPES at
IDENTITY_SEEDS: each report's a, b, log L and residual as hex, with its
iterations, label and converged flag. It does the same for the EM reports
of the bench's two EM cases (EM_CASES) at IDENTITY_SEEDS, every field as
hex, trace included. The package does not import this script.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
# (n, s, t, starts): the certify shapes whose structure the tests pin
IDENTITY_SHAPES = [(4, 2, 1, 200), (4, 3, 2, 200), (6, 1, 2, 50), (3, 2, 1, 50),
                   (5, 2, 1, 50), (16, 2, 1, 50), (4, 1, 1, 50), (4, 100, 1, 10),
                   (4, 1000, 1, 1), (16, 1001, 1000, 3), (2, 1000, 1, 10),
                   (4, 21, 20, 50)]
IDENTITY_SEEDS = (1, 2, 3)
# (table side, table seed, classes, starts) of the bench's EM cases: the 4/2
# table, and the random 8x8 table drawn from bench/workloads.py's TABLE_SEED
EM_CASES = [(4, None, 2, 100), (8, 0, 3, 20)]


def load(name: str, src: Path):
    """The swissfrancs package under src, imported as the package name."""
    package = src / "swissfrancs"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _newton_ends(pkg, n: int, s: float, t: float, starts: int, seed: int = 1):
    """The arrays _reports takes at weights (s, t): the end points of
    multistart's Newton run and their iteration counts."""
    import numpy as np
    solvers = importlib.import_module(f"{pkg.__name__}.solvers")
    cfg = solvers.SolverConfig(starts=starts, seed=seed)
    ab = solvers._random_starts(n, starts, np.random.default_rng(seed))
    a, b, iterations = solvers._newton(ab[:, 0], ab[:, 1], s / t, cfg)
    return solvers, cfg, a, b, iterations


def _reports_case(n: int, starts: int):
    def setup(pkg):
        solvers, cfg, a, b, iterations = _newton_ends(pkg, n, 2.0, 1.0, starts)
        return lambda: solvers._reports(a, b, iterations, 2.0, cfg, 2.0, 1.0)
    return setup


def _labels_case(n: int, starts: int):
    def setup(pkg):
        import numpy as np
        solvers, _, a, b, _ = _newton_ends(pkg, n, 2.0, 1.0, starts)
        resid = np.abs(pkg.ranktwo.gradient(a, b, 2.0)).max(axis=-1)
        keep = resid < solvers.CLASSIFY_RESIDUAL_TOL
        return lambda: solvers._labels(a[keep], b[keep], 2.0)
    return setup


def _rational_phases(pkg):
    """block_matrix, its SUM_NSQ form and matrix_checks, as certify runs
    them at n >= 5."""
    nsq = pkg.Convention.SUM_NSQ

    def run():
        matrix = pkg.block_matrix(16, 2, 1)
        pkg.verify.matrix_checks(pkg.convert_convention(matrix, nsq), 2)
    return run


def _phase(name: str):
    def setup(pkg):
        block = pkg.block_matrix(16, 2, 1)
        nsq = pkg.convert_convention(block, pkg.Convention.SUM_NSQ)
        return {"block_matrix": lambda: pkg.block_matrix(16, 2, 1),
                "convert_convention": lambda: pkg.convert_convention(
                    block, pkg.Convention.SUM_NSQ),
                "matrix_checks": lambda: pkg.verify.matrix_checks(nsq, 2)}[name]
    return setup


def _certify(n: int, s: int, t: int, starts: int):
    def setup(pkg):
        cfg = pkg.SolverConfig(starts=starts, seed=1)
        return lambda: pkg.certify(n, s, t, cfg)
    return setup


def _em_table(pkg, side: int, table_seed):
    """The 4/2 table when table_seed is None, else the side x side table of
    counts 1 to 49 that bench/workloads.random_table draws from table_seed."""
    if table_seed is None:
        return pkg.swiss_counts()
    rng = random.Random(table_seed)
    return pkg.WeightTable.full([[rng.randint(1, 49) for _ in range(side)]
                                 for _ in range(side)])


def _em_case(side: int, table_seed, r: int, starts: int):
    def setup(pkg):
        table = _em_table(pkg, side, table_seed)
        cfg = pkg.SolverConfig(starts=starts, seed=1)
        return lambda: pkg.em_multistart(table, r, cfg)
    return setup


def _f_polynomials(pkg):
    points = [cand.point() for cand in pkg.enumerate_n4(2, 1)]
    return lambda: [pkg.f_polynomial(pt, rho=2.0) for pt in points]


CASES = {
    "certify(16, 2, 1, starts=50)": _certify(16, 2, 1, 50),
    "certify(6, 1, 2, starts=50)": _certify(6, 1, 2, 50),
    "certify(3, 2, 1, starts=50)": _certify(3, 2, 1, 50),
    "certify(5, 2, 1, starts=50)": _certify(5, 2, 1, 50),
    "certify(4, 1, 1, starts=50)": _certify(4, 1, 1, 50),
    "rational phases of certify(16, 2, 1)": lambda pkg: _rational_phases(pkg),
    "block_matrix(16, 2, 1)": _phase("block_matrix"),
    "convert_convention(block 16, SUM_NSQ)": _phase("convert_convention"),
    "matrix_checks(block 16, 2)": _phase("matrix_checks"),
    "certify(4, 2, 1, starts=200)": _certify(4, 2, 1, 200),
    "enumerate_n4(2, 1)": lambda pkg: lambda: pkg.enumerate_n4(2, 1),
    "enumerate_n4(3, 2)": lambda pkg: lambda: pkg.enumerate_n4(3, 2),
    "global_candidate(s, 1), s = 2..40":
        lambda pkg: lambda: [pkg.global_candidate(s, 1) for s in range(2, 41)],
    "lemma_a2_factorization()": lambda pkg: pkg.lemma_a2_factorization,
    "f_polynomial(2:1 candidates)": _f_polynomials,
    # side-checks' largest share, and the call its setup_s probe times
    "f3_region_scan(400)": lambda pkg: lambda: pkg.f3_region_scan(400),
    "_labels at (16, 2, 1, 50)": _labels_case(16, 50),
    "_reports at (4, 2, 1, 200)": _reports_case(4, 200),
    "_reports at (16, 2, 1, 50)": _reports_case(16, 50),
    "em_multistart(4/2 table, r=2, 100 starts)": _em_case(*EM_CASES[0]),
    "em_multistart(8x8 table, r=3, 20 starts)": _em_case(*EM_CASES[1]),
}


def report_digests(pkg) -> list:
    """One sha256 per (shape, seed) of IDENTITY_SHAPES x IDENTITY_SEEDS over
    the hex fields of every multistart report, or the error a multistart
    raised."""
    digests = []
    for n, s, t, starts in IDENTITY_SHAPES:
        for seed in IDENTITY_SEEDS:
            try:
                reports = pkg.multistart(pkg.WeightTable.symmetric(n, s, t),
                                         pkg.SolverConfig(starts=starts, seed=seed)).reports
            except pkg.ConvergenceError as exc:
                reports = exc
            text = repr(reports) if isinstance(reports, Exception) else repr([
                ([x.hex() for x in r.point.a], [x.hex() for x in r.point.b],
                 float(r.loglik).hex(), r.residual.hex(), r.iterations,
                 r.classification, r.converged) for r in reports])
            digests.append(((n, s, t, starts, seed),
                            hashlib.sha256(text.encode()).hexdigest()))
    return digests


def em_digests(pkg) -> list:
    """One sha256 per (case, seed) of EM_CASES x IDENTITY_SEEDS over every
    field of every em_multistart report, floats as hex, trace included."""
    digests = []
    for side, table_seed, r, starts in EM_CASES:
        table = _em_table(pkg, side, table_seed)
        for seed in IDENTITY_SEEDS:
            reports = pkg.em_multistart(table, r, pkg.SolverConfig(starts=starts,
                                                                   seed=seed)).reports
            text = repr([
                ([x.hex() for x in rep.point.weights],
                 [[x.hex() for x in row] for row in rep.point.row_cond],
                 [[x.hex() for x in row] for row in rep.point.col_cond],
                 rep.loglik.hex(), rep.residual.hex(), rep.iterations, rep.converged,
                 rep.start, [x.hex() for x in rep.trace]) for rep in reports])
            digests.append(((side, table_seed, r, starts, seed),
                            hashlib.sha256(text.encode()).hexdigest()))
    return digests


def _differ(base, change, digests) -> list:
    """The keys whose digests differ between the two trees."""
    return [key for (key, b), (_, c) in zip(digests(base), digests(change)) if b != c]


def _timed(call) -> float:
    start = perf_counter()
    call()
    return perf_counter() - start


def compare(base, change, rounds: int, names) -> list:
    """(case, base median s, change median s, median ratio, change wins)
    for each case name."""
    rows = []
    for name in names:
        calls = (CASES[name](base), CASES[name](change))
        for call in calls:
            call()
        gc.collect()
        times = ([], [])
        for r in range(rounds):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                times[side].append(_timed(calls[side]))
        ratios = [c / b for b, c in zip(*times)]
        rows.append((name, statistics.median(times[0]), statistics.median(times[1]),
                     statistics.median(ratios), sum(c < b for b, c in zip(*times))))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True,
                        help="the src directory of the tree to compare against")
    parser.add_argument("--change", type=Path, default=ROOT / "src",
                        help="the src directory of the changed tree (default: this one)")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--case", action="append", default=[],
                        help="run only the cases whose name contains this text")
    args = parser.parse_args(argv)
    names = [name for name in CASES
             if not args.case or any(text in name for text in args.case)]
    base = load("swissfrancs_base", args.base.resolve())
    change = load("swissfrancs_change", args.change.resolve())
    print(f"{'case':40s} {'base ms':>9s} {'change ms':>9s} {'ratio':>6s} "
          f"{'wins':>7s}")
    for name, b, c, ratio, wins in compare(base, change, args.rounds, names):
        print(f"{name:40s} {b * 1e3:9.3f} {c * 1e3:9.3f} {ratio:6.3f} "
              f"{wins:3d}/{args.rounds}")
    seeds = f"seeds {IDENTITY_SEEDS[0]}-{IDENTITY_SEEDS[-1]}"
    differ = _differ(base, change, report_digests)
    print(f"multistart reports on {len(IDENTITY_SHAPES)} shapes x {seeds}: "
          + ("bit-identical" if not differ else
             "differ at (n, s, t, starts, seed) " + ", ".join(map(str, differ))))
    differ = _differ(base, change, em_digests)
    print(f"EM reports on {len(EM_CASES)} cases x {seeds}: "
          + ("bit-identical" if not differ else
             "differ at (side, table seed, r, starts, seed) " + ", ".join(map(str, differ))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
