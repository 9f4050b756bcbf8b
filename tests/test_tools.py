"""What tools/inprocess_ab.py reads from the package.

The A/B script's cases reach into private names (solvers._newton,
_reports, _labels, _random_starts), so a rename fails here, not first at
the next A/B run. Each case is set up and called once, untimed, and the
candidate, certificate and algebra digests are taken once each. The
scripts are read, compiled and run in memory, so no bytecode is written
next to them.
"""

import sys
import types
from pathlib import Path

import pytest

import swissfrancs

ROOT = Path(__file__).parent.parent


def _script(path: Path, name: str) -> types.ModuleType:
    """The script at path run as the module name, registered in
    sys.modules, where dataclasses look up the module of a class they
    build."""
    module = types.ModuleType(name)
    module.__file__ = str(path)
    sys.modules[name] = module
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


AB = _script(ROOT / "tools" / "inprocess_ab.py", "tools_inprocess_ab")


@pytest.mark.parametrize("name", list(AB.CASES))
def test_every_case_sets_up_and_runs(name):
    AB.CASES[name](swissfrancs)()


def test_em_cases_use_the_bench_tables():
    workloads = _script(ROOT / "bench" / "workloads.py", "bench_workloads")
    (_, swiss_seed, _, _), (side, table_seed, _, _) = AB.EM_CASES
    assert AB._em_table(swissfrancs, 4, swiss_seed) == swissfrancs.swiss_counts()
    assert (side, table_seed) == (workloads.TABLE_SIDE, workloads.TABLE_SEED)
    assert AB._em_table(swissfrancs, side, table_seed).as_array().tolist() \
        == workloads.random_table(table_seed)


def test_candidate_digest_covers_every_weight_pair():
    digests = AB.candidate_digests(swissfrancs)
    assert [key for key, _ in digests] == AB.CANDIDATE_WEIGHTS
    assert all(len(digest) == 64 for _, digest in digests)


def test_candidate_digest_covers_the_comparison(monkeypatch):
    before = AB.candidate_digests(swissfrancs)
    compare = swissfrancs.candidates.compare_candidates

    def renamed(cands):
        winner, strict, method = compare(cands)
        return winner, strict, method + " (renamed)"

    monkeypatch.setattr(swissfrancs.candidates, "compare_candidates", renamed)
    after = AB.candidate_digests(swissfrancs)
    assert all(b != a for (_, b), (_, a) in zip(before, after))


def test_certificate_digest_covers_every_shape():
    workloads = _script(ROOT / "bench" / "workloads.py", "bench_workloads")
    assert AB.HARD_CASES == list(workloads.HARD_CASES)
    digests = AB.certificate_digests(swissfrancs)
    assert [key for key, _ in digests] == AB.CERTIFICATE_SHAPES
    assert all(len(digest) == 64 for _, digest in digests)


def test_algebra_digest_covers_every_lemma():
    digests = AB.algebra_digests(swissfrancs)
    assert [key for key, _ in digests] \
        == [(name, s, t) for s, t in AB.LEMMA_WEIGHTS for name in swissfrancs.verify.LEMMAS] \
        + [("factor lemma",), ("reference f3",)]
    assert all(len(digest) == 64 for _, digest in digests)


def test_evaluation_digest_covers_every_row_set():
    digests = AB.evaluation_digests(swissfrancs)
    margin = swissfrancs.ranktwo.FEASIBILITY_MARGIN
    assert [key for key, _ in digests] == [key for key, *_ in AB.evaluation_rows(margin)]
    assert all(len(digest) == 64 for _, digest in digests)
