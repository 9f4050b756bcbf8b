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
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from typing import Optional

from .candidates import (EXACT_EXPONENT_MAX, candidate_lines, enumerate_n4,
                         global_candidate, has_exact_likelihood)
from .core import (Convention, ConvergenceError, WeightTable,
                   convert_convention, load_weight_table, swiss_counts)
from .solvers import SolverConfig, em_multistart, multistart
from .verify import LEMMAS, VERDICT_INCONCLUSIVE, certify

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_INCONCLUSIVE = 4

# SolverConfig fields with a flag each; an absent flag keeps the default
SOLVER_FLAGS = ("starts", "seed", "tol", "max_iter", "cluster_eps")


def _write_output(write, out: Optional[str]) -> None:
    """Call write(fh) on stdout, or on a temporary file that then
    atomically replaces the path out."""
    if out is None:
        write(sys.stdout)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".swissfrancs-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, data, text: Optional[str], header, rows) -> None:
    """Write the result in the --format asked for: data as JSON, text as
    given, or header and rows as CSV, the rows streamed as they come."""
    def write(fh) -> None:
        if args.format == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            return
        body = json.dumps(data, indent=2) if args.format == "json" else text
        fh.write(body if body.endswith("\n") else body + "\n")

    _write_output(write, args.out)


def _parse_weight(text: str) -> Fraction | float:
    """Weights on the command line: fractions and integers stay exact.
    A zero denominator falls through to float(), whose ValueError argparse
    reports as a bad value."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return float(text)


def _config(args) -> SolverConfig:
    return SolverConfig(**{name: getattr(args, name)
                           for name in SOLVER_FLAGS if hasattr(args, name)})


def _weights_given(args) -> bool:
    """Whether --s and --t were given; one without the other is an error."""
    if (args.s is None) != (args.t is None):
        raise ValueError("--s and --t must be given together")
    return args.s is not None


def _weight_source(args) -> WeightTable:
    if args.counts is not None and (args.s, args.t) != (None, None):
        raise ValueError("give either --counts or --s/--t, not both")
    if _weights_given(args):
        return WeightTable.symmetric(4 if args.n is None else args.n,
                                     args.s, args.t)
    table = swiss_counts() if args.counts is None else load_weight_table(args.counts)
    if args.n not in (None, table.n):
        raise ValueError(f"--n {args.n} does not match the side {table.n} "
                         "of the count table")
    return table


def cmd_solve(args) -> int:
    cfg = _config(args)
    if args.classes is not None and args.classes < 1:
        raise ValueError("--classes must be at least 1")
    if args.method == "em" and hasattr(args, "cluster_eps"):
        raise ValueError("--method em does not take --cluster-eps")
    if args.method == "newton" and args.classes is not None:
        raise ValueError("--method newton does not take --classes")
    weights = _weight_source(args)
    if args.method == "em":
        classes = 2 if args.classes is None else args.classes
        result = em_multistart(weights, classes, cfg)
        data = result.to_json_dict()
        data["best_loglik"] = data["best"]["loglik"]
        best = result.best
        text = "\n".join([f"EM best log-likelihood: {best.loglik:.17g}",
                          f"iterations: {best.iterations}  converged: {best.converged}",
                          f"runs: {len(result.reports)}"])
        rows = [(i, f"{r.loglik:.17g}", r.iterations, r.converged)
                for i, r in enumerate(result.reports)]
        _emit(args, data, text, ("run", "loglik", "iterations", "converged"), rows)
        return EXIT_OK

    # a 1 x 1 table has no off-diagonal cell; multistart refuses its side
    if weights.n > 1 and weights.symmetric_pair() is None:
        raise ValueError("the rank-two solver needs diagonal/off-diagonal "
                         "weights; use --method em for general tables")
    result = multistart(weights, cfg)
    data = result.to_json_dict()
    data["best_loglik"] = data["best"]["loglik"]
    if not _weights_given(args):
        # likelihood of the found matrix under the count table,
        # entries rescaled to sum to one
        total = float(weights.total())
        data["best_loglik_counts"] = float(
            result.best.loglik - total * math.log(weights.n ** 2))
    lines = [f"best log-likelihood: {result.best.loglik:.17g}",
             f"classification: {result.best.classification}",
             f"residual: {result.best.residual:.3e}",
             "clusters:"]
    for cluster in result.clusters:
        lines.append(f"  log L = {cluster.loglik:.17g}  size {cluster.size}"
                     f"  {cluster.representative.classification}")
    rows = [(i, f"{c.loglik:.17g}", c.size, c.representative.classification,
             f"{c.representative.residual:.3e}")
            for i, c in enumerate(result.clusters)]
    _emit(args, data, "\n".join(lines),
          ("cluster", "loglik", "size", "classification", "residual"), rows)
    return EXIT_OK


def cmd_candidates(args) -> int:
    if args.s is None or args.t is None:
        raise ValueError("candidates needs --s and --t")
    if args.n != 4:
        raise ValueError("closed-form candidates exist only for n = 4")
    if args.exact and not has_exact_likelihood(args.s, args.t):
        raise ValueError("--exact likelihoods need integer weights with "
                         f"4 s + 12 t <= {EXACT_EXPONENT_MAX}")
    cands = enumerate_n4(args.s, args.t)
    winner = global_candidate(args.s, args.t, cands)
    data = {"s": str(args.s), "t": str(args.t),
            "winner": winner.pattern.signs,
            "candidates": [c.to_json_dict() for c in cands],
            "winner_sum_one": convert_convention(
                winner.matrix, Convention.SUM_ONE).to_json_dict()}
    lines = [f"candidates at s={args.s}, t={args.t}:",
             *candidate_lines(cands, winner, " ")]
    rows = [(c.pattern.signs, str(c.alpha_sq), f"{c.loglik:.17g}",
             c.likelihood_text() or "", c is winner)
            for c in cands]
    _emit(args, data, "\n".join(lines),
          ("pattern", "alpha_sq", "loglik", "likelihood", "winner"), rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    s, t = (args.s, args.t) if _weights_given(args) else (2, 1)
    if args.lemma is not None:
        ignored = [name for name in SOLVER_FLAGS if hasattr(args, name)]
        if args.n != 4:
            ignored.insert(0, "n")
        if ignored:
            raise ValueError("--lemma does not take " + ", ".join(
                "--" + name.replace("_", "-") for name in ignored))
        check = LEMMAS[args.lemma](s, t)
        if check.passed is None:
            raise ValueError(f"{check.name}: {check.detail}")
        _emit(args, check.data, check.detail, ("lemma", "passed"),
              [(check.name, check.passed)])
        return EXIT_OK if check.passed else EXIT_INCONCLUSIVE

    certificate = certify(args.n, s, t, _config(args))
    rows = [(c.name, c.passed, c.detail) for c in certificate.checks]
    _emit(args, certificate.to_json_dict(), certificate.to_text(),
          ("check", "passed", "detail"), rows)
    if certificate.verdict == VERDICT_INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swissfrancs",
        description="Solve and certify the 100 Swiss Francs matrix-likelihood "
                    "problem and its weighted generalizations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, solver_options):
        """Weight and output options, and the multistart solver's options
        for the subcommands that run it."""
        p.add_argument("--s", type=_parse_weight, default=None,
                       help="diagonal weight")
        p.add_argument("--t", type=_parse_weight, default=None,
                       help="off-diagonal weight")
        p.add_argument("--n", type=int, default=4, help="matrix side")
        if solver_options:
            for name in SOLVER_FLAGS:
                p.add_argument("--" + name.replace("_", "-"),
                               type=type(getattr(SolverConfig, name)),
                               default=argparse.SUPPRESS)
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
    add_common(solve, solver_options=True)
    # a count table sets its own side, so solve's --n has no default
    solve.set_defaults(func=cmd_solve, n=None)

    cands = sub.add_parser("candidates", help="closed-form candidates at n = 4")
    cands.add_argument("--exact", action="store_true",
                       help="require exact rational likelihoods")
    add_common(cands, solver_options=False)
    cands.set_defaults(func=cmd_candidates)

    ver = sub.add_parser("verify", help="certificates and individual checks")
    ver.add_argument("--lemma", choices=tuple(LEMMAS), default=None)
    add_common(ver, solver_options=True)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
