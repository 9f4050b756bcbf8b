"""What the benchmark harness under bench/ reads from the package.

bench/tracing.py wraps every function named in its TARGETS, and
bench/run.py records verify.worker_count() and the threads field of the
f3 scan. bench/workloads.py checks every output it times: it reads a
candidate's pattern signs, alpha_sq and point(), the certificate's JSON
fields, and the reports of the algebra checks. A refactor of the package
that breaks one of them fails here, not first in a benchmark run. The
hard-certificates and EM cases also run here at the seeds of the bench's
first passes (bench/run.py's pass_seed) and its warm-up seed: a change
of random starts can fail a case only where it has few starts. The
bench modules are read, compiled and run in memory, so no bytecode is
written next to them.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

from swissfrancs import verify
from swissfrancs.solvers import SolverConfig

BENCH = Path(__file__).parent.parent / "bench"


def _bench_module(name: str) -> types.ModuleType:
    """bench/<name>.py run as the module bench_<name>. It is registered in
    sys.modules, where dataclasses look up the module of a class they
    build."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def workloads() -> types.ModuleType:
    return _bench_module("workloads")


@pytest.fixture(scope="module")
def run() -> types.ModuleType:
    return _bench_module("run")


def test_every_trace_target_resolves():
    targets = _bench_module("tracing").TARGETS
    assert targets
    for target in targets:
        # the lookup Tracer.install makes: <module>.<attribute path>, the
        # last name in its owner's own namespace
        module_name, _, path = target.partition(".")
        owner = importlib.import_module(f"swissfrancs.{module_name}")
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(attr)), target


def test_scan_thread_count_is_reported():
    assert verify.worker_count() >= 1
    assert verify.f3_region_scan(10).to_json_dict()["threads"] >= 1


def test_side_check_outputs_pass_their_checks(workloads):
    workloads._check_global_candidates(workloads._global_candidates())
    workloads._check_f_polynomials(workloads._f_polynomials())
    workloads._check_factorization(verify.lemma_a2_factorization())


@pytest.mark.parametrize("n, s, t", [(4, 2, 1), (4, 3, 2), (5, 2, 1), (6, 1, 2),
                                     (4, 1, 1), (16, 2, 1)])
def test_certificates_pass_the_bench_check(workloads, n, s, t):
    cert = verify.certify(n, s, t, SolverConfig(starts=5, seed=1))
    workloads.check_certificate(cert.to_json_dict(), n, s, t)


@pytest.mark.parametrize("index", [None, 0, 1, 2], ids=["warmup", "pass0", "pass1", "pass2"])
def test_bench_cases_pass_at_the_bench_seeds(workloads, run, tmp_path, index):
    seed = run.WARMUP_SEED if index is None else run.pass_seed(1, index)
    cases = workloads.hard_certificates(seed, str(tmp_path)) \
        + [workloads._em_swiss_case(seed), workloads._em_table_case(seed)]
    for case in cases:
        outcome = workloads.run_case(case)
        assert outcome.status == "ok", (case.label, outcome.detail)
