"""What the benchmark harness under bench/ reads from the package.

bench/tracing.py wraps every function named in its TARGETS, and
bench/run.py records verify.worker_count() and the threads field of the
f3 scan. A refactor of the package that breaks one of them fails here,
not first in a benchmark run. bench/tracing.py is read, compiled and run
in memory, so no bytecode is written next to it.
"""

import importlib
import types
from pathlib import Path

from swissfrancs import verify

TRACING = Path(__file__).parent.parent / "bench" / "tracing.py"


def _tracing_module() -> types.ModuleType:
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_trace_target_resolves():
    targets = _tracing_module().TARGETS
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
