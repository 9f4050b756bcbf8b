"""Tests of the benchmark harness: failure counting, tracing and the
metric names it promises in BENCHMARK.json.

Run with ``python -m pytest bench/tests``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from swissfrancs import solvers, verify

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _raise():
    raise RuntimeError("boom")


def test_raising_case_counts_as_failed_and_the_pass_continues():
    cases = [
        workloads.Case("raises", "pass", _raise, lambda out: out),
        workloads.Case("unanswered", "pass", lambda: 4, _unanswered),
        workloads.Case("wrong", "pass", lambda: 1, lambda out: workloads._require(out == 2, "1 != 2")),
        workloads.Case("fine", "pass", lambda: 2, lambda out: out),
    ]
    outcomes = run.run_pass(workloads, cases, run.Reference())
    assert [o.status for o in outcomes] == ["failed", "failed", "wrong", "ok"]
    assert "RuntimeError: boom" in outcomes[0].detail
    counts = run.tally([outcomes])
    assert (counts["attempted"], counts["failed"], counts["wrong"]) == (4, 3, 1)


def _unanswered(out):
    raise workloads.Unanswered(f"exit code {out}")


def _small_cases(seed):
    return [workloads.certify_case(4, 2, 1, 4, seed),
            workloads.certify_case(3, 2, 1, 4, seed),
            workloads.Case("factorization", "algebra",
                           lambda: verify.lemma_a2_factorization(),
                           workloads._check_factorization),
            workloads.Case("f_polynomial", "algebra", workloads._f_polynomials,
                           workloads._check_f_polynomials),
            workloads.Case("certify(1, 2, 1)", "pass",
                           lambda: verify.certify(1, 2, 1, solvers.SolverConfig(starts=1)),
                           lambda cert: cert)]


def test_traced_and_untraced_outputs_match_and_wrappers_are_restored():
    original = verify.multistart
    untraced = run.run_pass(workloads, _small_cases(3), run.Reference())
    tracer = tracing.Tracer()
    cases = [workloads.Case(c.label, c.group, tracer.recording(c.call), c.check)
             for c in _small_cases(3)]
    with tracer:
        assert verify.multistart is not original
        traced = run.run_pass(workloads, cases, run.Reference())
    assert verify.multistart is original
    assert solvers.scaled_loglik.__module__ == "swissfrancs.solvers"
    assert not hasattr(solvers.scaled_loglik, "__wrapped__")
    assert [o.status for o in untraced] == ["ok", "ok", "ok", "ok", "failed"]
    assert [o.digest for o in traced] == [o.digest for o in untraced]
    metrics, missing = tracer.layer_metrics()
    assert metrics["verify.certify.self_s"] > 0
    assert metrics["solvers.newton_stationary.calls"] >= 8
    assert metrics["polys.Poly3.__mul__.calls"] > 0
    assert metrics["solvers.scaled_loglik.calls.classify"] > 0
    assert "solvers.em_fit.calls" in missing
    assert "verify.certify.self_s" not in missing


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    for name, parent, start, end in (("outer", -1, 0.0, 10.0), ("inner", 0, 1.0, 4.0),
                                     ("leaf", 1, 2.0, 3.0), ("inner", 0, 5.0, 6.0)):
        tracer.name_id.append(tracer._name_id(name))
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    names, _, dur, self_time = tracer.span_table()
    assert list(dur) == [10.0, 3.0, 1.0, 1.0]
    assert list(self_time) == [6.0, 2.0, 1.0, 1.0]


def test_metric_names_and_benchmark_json_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = [{"name": n, "unit": u, "better": b} for n, u, b, _ in tracing.LAYER_METRICS]
    assert spec["per_layer"] == layer
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + list(run.WORKLOAD_NAMES):
        assert NAME.fullmatch(name), name
    for name, _, _, _ in tracing.LAYER_METRICS:
        assert tracing.layer_of(name) is not None or name.startswith(("side_checks.", "trace."))


def test_command_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "n4-certificate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("s", [2, 3, 7])
def test_ppnn_closed_form_matches_the_candidates(s):
    from swissfrancs import core
    winner = workloads.candidates.global_candidate(s, 1)
    sum_one = core.convert_convention(winner.matrix, core.Convention.SUM_ONE)
    assert [list(r) for r in sum_one.entries] == workloads.ppnn_sum_one(s, 1)
