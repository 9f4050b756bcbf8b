"""Command-line front end.

Three subcommands: solve (multistart rank-two search or latent-class EM),
candidates (exact closed-form enumeration at n = 4), and verify (the
certificate, or an individual named check via --lemma). Exit codes: 0 on
success, 2 for input problems, 3 for solver failures, 4 when a
certificate comes out inconclusive.

The default instance, used when no weight source is given, is the 4 x 4
count table with 4 on the diagonal and 2 elsewhere. Outputs carry no
timestamps, so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from typing import Optional

from . import verify as verify_mod
from .candidates import enumerate_n4, global_candidate
from .core import (Convention, ConvergenceError, WeightTable,
                   convert_convention, load_weight_table, swiss_counts)
from .solvers import SolverConfig, em_multistart, multistart
from .verify import (VERDICT_INCONCLUSIVE, certify, f3_region_scan,
                     lemma_a2_factorization, scan_csv_rows, tail_pair_solve)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_INCONCLUSIVE = 4

LEMMA_CHOICES = ("bounds", "order", "fpoly", "f1", "f3", "factor", "tailpair")


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".swissfrancs-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(data) -> str:
    return json.dumps(data, indent=2)


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def _parse_weight(text: str) -> Fraction | float:
    """Weights on the command line: fractions and integers stay exact."""
    try:
        return Fraction(text)
    except ValueError:
        return float(text)


def _config(args) -> SolverConfig:
    return SolverConfig(max_iter=args.max_iter, tol=args.tol,
                        starts=args.starts, seed=args.seed,
                        cluster_eps=args.cluster_eps)


def _weight_source(args) -> WeightTable:
    if args.counts is not None and args.s is not None:
        raise ValueError("give either --counts or --s/--t, not both")
    if args.counts is not None:
        return load_weight_table(args.counts)
    if (args.s is None) != (args.t is None):
        raise ValueError("--s and --t must be given together")
    if args.s is not None:
        return WeightTable.symmetric(args.n, args.s, args.t)
    return swiss_counts()


def cmd_solve(args) -> int:
    cfg = _config(args)
    if args.classes is not None and args.classes < 1:
        raise ValueError("--classes must be at least 1")
    weights = _weight_source(args)
    if args.method == "em":
        classes = 2 if args.classes is None else args.classes
        result = em_multistart(weights, classes, cfg)
        data = result.to_json_dict()
        data["best_loglik"] = data["best"]["loglik"]
        if args.format == "json":
            _write_output(_json_text(data), args.out)
        elif args.format == "text":
            best = result.best
            lines = [f"EM best log-likelihood: {best.loglik:.17g}",
                     f"iterations: {best.iterations}  converged: {best.converged}",
                     f"runs: {len(result.reports)}"]
            _write_output("\n".join(lines), args.out)
        else:
            rows = [(i, f"{r.loglik:.17g}", r.iterations, r.converged)
                    for i, r in enumerate(result.reports)]
            _write_output(_csv_text(("run", "loglik", "iterations", "converged"),
                                    rows), args.out)
        return EXIT_OK

    pair = weights.symmetric_pair()
    if pair is None:
        raise ValueError("the rank-two solver needs diagonal/off-diagonal "
                         "weights; use --method em for general tables")
    s, t = pair
    symmetric = WeightTable.symmetric(weights.n, s, t)
    result = multistart(symmetric, cfg)
    data = result.to_json_dict()
    data["best_loglik"] = data["best"]["loglik"]
    if weights.kind == "full":
        # likelihood of the found matrix under the original counts,
        # entries rescaled to sum to one
        total = float(weights.total())
        data["best_loglik_counts"] = float(
            f"{result.best.loglik - total * math.log(weights.n ** 2):.17g}")
    if args.format == "json":
        _write_output(_json_text(data), args.out)
    elif args.format == "text":
        lines = [f"best log-likelihood: {result.best.loglik:.17g}",
                 f"classification: {result.best.classification}",
                 f"residual: {result.best.residual:.3e}",
                 "clusters:"]
        for cluster in result.clusters:
            lines.append(f"  log L = {cluster.loglik:.17g}  size {cluster.size}"
                         f"  {cluster.representative.classification}")
        _write_output("\n".join(lines), args.out)
    else:
        rows = [(i, f"{c.loglik:.17g}", c.size,
                 c.representative.classification,
                 f"{c.representative.residual:.3e}")
                for i, c in enumerate(result.clusters)]
        _write_output(_csv_text(
            ("cluster", "loglik", "size", "classification", "residual"), rows),
            args.out)
    return EXIT_OK


def cmd_candidates(args) -> int:
    if args.s is None or args.t is None:
        raise ValueError("candidates needs --s and --t")
    if args.n != 4:
        raise ValueError("closed-form candidates exist only for n = 4")
    if args.exact:
        s, t = Fraction(args.s), Fraction(args.t)
        if s.denominator != 1 or t.denominator != 1:
            raise ValueError("--exact likelihoods need integer weights")
    cands = enumerate_n4(args.s, args.t)
    winner = global_candidate(args.s, args.t, cands)
    data = {"s": str(args.s), "t": str(args.t),
            "winner": winner.pattern.signs,
            "candidates": [c.to_json_dict() for c in cands],
            "winner_sum_one": convert_convention(
                winner.matrix, Convention.SUM_ONE).to_json_dict()}
    if args.format == "json":
        _write_output(_json_text(data), args.out)
    elif args.format == "text":
        lines = [f"candidates at s={args.s}, t={args.t}:"]
        for cand in cands:
            mark = "*" if cand is winner else " "
            like = (f"L = {cand.likelihood}" if cand.likelihood is not None
                    else f"log L = {cand.loglik:.17g}")
            lines.append(f" {mark} {cand.pattern.signs}  alpha^2 = "
                         f"{cand.alpha_sq}  {like}")
        sum_one = convert_convention(winner.matrix, Convention.SUM_ONE)
        lines.append("winner matrix (sum-one convention):")
        for row in sum_one.entries:
            lines.append("    " + "  ".join(str(x) for x in row))
        _write_output("\n".join(lines), args.out)
    else:
        rows = [(c.pattern.signs, str(c.alpha_sq), f"{c.loglik:.17g}",
                 "" if c.likelihood is None else str(c.likelihood),
                 c is winner)
                for c in cands]
        _write_output(_csv_text(
            ("pattern", "alpha_sq", "loglik", "likelihood", "winner"), rows),
            args.out)
    return EXIT_OK


def _lemma_report(args) -> tuple[bool, dict, str]:
    name = args.lemma
    if name == "f1":
        cases = [((Fraction(0), Fraction(0)), Fraction(0)),
                 ((Fraction(1, 5), Fraction(1, 5)), Fraction(1, 25)),
                 ((Fraction(1, 15), Fraction(1, 15)), Fraction(-1, 75))]
        results = [{"x": str(x), "y": str(y),
                    "value": str(verify_mod.f1_eval(x, y)),
                    "expected": str(expected),
                    "passed": verify_mod.f1_eval(x, y) == expected}
                   for (x, y), expected in cases]
        passed = all(r["passed"] for r in results)
        text = "\n".join(f"f1({r['x']}, {r['y']}) = {r['value']} "
                         f"(expected {r['expected']})" for r in results)
        return passed, {"lemma": "f1", "cases": results, "passed": passed}, text
    if name == "f3":
        scan = f3_region_scan(args.resolution)
        passed = scan.below_reference_bound
        text = (f"grid max {scan.max_value:.9g} at {scan.argmax} over "
                f"{scan.n_points} points; bound -549/500 = -1.098: "
                f"{'below' if passed else 'NOT below'}")
        return passed, {"lemma": "f3", **scan.to_json_dict()}, text
    if name == "factor":
        report = lemma_a2_factorization()
        passed = report.remainder_zero
        text = (f"remainder zero: {report.remainder_zero}; cofactor vs the explicit "
                f"17-term polynomial: {report.cofactor_constant}")
        return passed, {"lemma": "factor", **report.to_json_dict()}, text
    if name == "tailpair":
        cases = [((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))),
                 ((Fraction(6, 5), Fraction(6, 5)),
                  (Fraction(4, 5), Fraction(4, 5))),
                 ((Fraction(16, 15), Fraction(16, 15)),
                  (Fraction(16, 15), Fraction(4, 5)))]
        results = []
        for (x, y), expected in cases:
            got = tail_pair_solve(x, y)
            results.append({"A1": str(x), "A2": str(y),
                            "A3": str(got[0]), "A4": str(got[1]),
                            "passed": got == expected})
        passed = all(r["passed"] for r in results)
        text = "\n".join(f"tail({r['A1']}, {r['A2']}) = ({r['A3']}, {r['A4']})"
                         for r in results)
        return passed, {"lemma": "tailpair", "cases": results, "passed": passed}, text

    # the remaining checks run over the four candidates
    cands = enumerate_n4(args.s if args.s is not None else 2,
                         args.t if args.t is not None else 1)
    if name == "bounds":
        ratio = Fraction(cands[0].s, cands[0].t)
        if ratio != 2:
            raise ValueError("the bound checks are specific to weight ratio 2")
        results = []
        for cand in cands:
            checks = verify_mod.check_bounds(cand.point())
            results.append({"pattern": cand.pattern.signs,
                            "checks": [c.to_json_dict() for c in checks],
                            "passed": all(c.passed for c in checks)})
        passed = all(r["passed"] for r in results)
        text = "\n".join(f"{r['pattern']}: "
                         f"{'pass' if r['passed'] else 'fail'}" for r in results)
        return passed, {"lemma": "bounds", "cases": results, "passed": passed}, text
    if name == "order":
        results = [{"pattern": c.pattern.signs,
                    **verify_mod.sign_order_check(c.point()).to_json_dict()}
                   for c in cands]
        passed = all(r["passed"] for r in results)
        text = "\n".join(f"{r['pattern']}: "
                         f"{'pass' if r['passed'] else 'fail'}" for r in results)
        return passed, {"lemma": "order", "cases": results, "passed": passed}, text
    if name == "fpoly":
        rho = float(cands[0].s) / float(cands[0].t)
        results = []
        for cand in cands:
            report = verify_mod.f_polynomial(cand.point(), rho=rho)
            ok = (report.constant == 0 and abs(report.linear) < 1e-12
                  and report.coordinates_are_roots
                  and report.function_zeros_in_reference)
            results.append({"pattern": cand.pattern.signs, "passed": ok,
                            **report.to_json_dict()})
        passed = all(r["passed"] for r in results)
        text = "\n".join(
            f"{r['pattern']}: degree {r['degree']}, zero low-order coefficients, "
            f"coordinates are roots: {r['coordinates_are_roots']}"
            for r in results)
        return passed, {"lemma": "fpoly", "cases": results, "passed": passed}, text
    raise ValueError(f"unknown lemma {name!r}")


def cmd_verify(args) -> int:
    if args.lemma is not None:
        if args.lemma == "f3" and args.format == "csv":
            rows = scan_csv_rows(args.resolution)
            _write_output(_csv_text(("a1", "a2", "b2", "f3"), rows), args.out)
            return EXIT_OK
        passed, data, text = _lemma_report(args)
        if args.format == "json":
            _write_output(_json_text(data), args.out)
        elif args.format == "text":
            _write_output(text, args.out)
        else:
            _write_output(_csv_text(("lemma", "passed"),
                                    [(args.lemma, passed)]), args.out)
        return EXIT_OK if passed else EXIT_INCONCLUSIVE

    s = args.s if args.s is not None else 2
    t = args.t if args.t is not None else 1
    certificate = certify(args.n, s, t, _config(args))
    if args.format == "json":
        _write_output(_json_text(certificate.to_json_dict()), args.out)
    elif args.format == "text":
        _write_output(certificate.to_text(), args.out)
    else:
        rows = [(c.name, c.passed, c.detail) for c in certificate.checks]
        _write_output(_csv_text(("check", "passed", "detail"), rows), args.out)
    if certificate.verdict == VERDICT_INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swissfrancs",
        description="Solve and certify the 100 Swiss Francs matrix-likelihood "
                    "problem and its weighted generalizations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, starts_default=200):
        p.add_argument("--s", type=_parse_weight, default=None,
                       help="diagonal weight")
        p.add_argument("--t", type=_parse_weight, default=None,
                       help="off-diagonal weight")
        p.add_argument("--n", type=int, default=4, help="matrix side")
        p.add_argument("--starts", type=int, default=starts_default)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-12)
        p.add_argument("--max-iter", type=int, default=10_000)
        p.add_argument("--cluster-eps", type=float, default=1e-6)
        p.add_argument("--format", choices=("json", "text", "csv"),
                       default="json")
        p.add_argument("--out", default=None, help="output path (atomic write)")

    solve = sub.add_parser("solve", help="run the numerical maximizers")
    solve.add_argument("--counts", default=None,
                       help="JSON count table (defaults to the 4/2 instance)")
    solve.add_argument("--method", choices=("newton", "em"),
                       default="newton")
    solve.add_argument("--classes", type=int, default=None,
                       help="latent class count for --method em (default 2)")
    add_common(solve)
    solve.set_defaults(func=cmd_solve)

    cands = sub.add_parser("candidates", help="closed-form candidates at n = 4")
    cands.add_argument("--exact", action="store_true",
                       help="require exact rational likelihoods")
    add_common(cands)
    cands.set_defaults(func=cmd_candidates)

    ver = sub.add_parser("verify", help="certificates and individual checks")
    ver.add_argument("--lemma", choices=LEMMA_CHOICES, default=None)
    ver.add_argument("--resolution", type=int, default=100,
                     help="grid resolution for --lemma f3")
    add_common(ver)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
