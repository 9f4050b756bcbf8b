"""Command-line behavior: flags, exit codes, formats, determinism."""

import argparse
import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from swissfrancs.cli import EXIT_INCONCLUSIVE, build_parser, main
from swissfrancs.core import swiss_counts
from swissfrancs.verify import LEMMAS

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"
SRC = Path(__file__).parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def counts_file(tmp_path):
    path = tmp_path / "swiss.json"
    path.write_text(json.dumps(swiss_counts().to_json_dict()))
    return str(path)


class TestSolve:
    def test_symmetric_weights_newton(self, capsys):
        code, out, _ = run(capsys, "solve", "--s", "2", "--t", "1", "--n", "4",
                           "--starts", "40", "--seed", "42")
        assert code == 0
        data = json.loads(out)
        target = 12 * math.log(6 / 5) + 8 * math.log(4 / 5)
        assert abs(data["best_loglik"] - target) < 1e-8

    def test_counts_em(self, capsys, counts_file):
        code, out, _ = run(capsys, "solve", "--counts", counts_file,
                           "--method", "em", "--classes", "2", "--starts", "25")
        assert code == 0
        data = json.loads(out)
        target = 24 * math.log(3 / 40) + 16 * math.log(1 / 20)
        assert abs(data["best_loglik"] - target) < 1e-6

    def test_default_instance_reports_counts_likelihood(self, capsys):
        code, out, _ = run(capsys, "solve", "--starts", "25", "--seed", "1")
        assert code == 0
        data = json.loads(out)
        target = 24 * math.log(3 / 40) + 16 * math.log(1 / 20)
        assert abs(data["best_loglik_counts"] - target) < 1e-8

    @pytest.mark.parametrize("form", [
        {"n": 4, "kind": "symmetric", "s": 4, "t": 2},
        {"n": 4, "kind": "full", "w": [[4 if i == j else 2 for j in range(4)]
                                       for i in range(4)]}], ids=["symmetric", "full"])
    def test_counts_file_in_either_form_is_the_default_instance(self, capsys, tmp_path,
                                                                form):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(form))
        argv = ("solve", "--starts", "5", "--seed", "1")
        _, default, _ = run(capsys, *argv)
        assert run(capsys, *argv, "--counts", str(path)) == (0, default, "")
        assert "best_loglik_counts" in json.loads(default)
        # weights given as --s/--t are not a count table
        _, out, _ = run(capsys, *argv, "--s", "4", "--t", "2")
        assert "best_loglik_counts" not in json.loads(out)

    def test_invalid_class_count(self, capsys, counts_file):
        code, _, err = run(capsys, "solve", "--counts", counts_file,
                           "--method", "em", "--classes", "0")
        assert code == 2
        assert "classes" in err
        # rejected regardless of the method in play
        code, _, err = run(capsys, "solve", "--counts", counts_file,
                           "--classes", "0")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "--counts", "/no/such/file.json")
        assert code == 2
        assert err

    def test_both_sources_rejected(self, capsys, counts_file):
        code, _, err = run(capsys, "solve", "--counts", counts_file,
                           "--s", "2", "--t", "1")
        assert code == 2

    @pytest.mark.parametrize("weight", ["--s", "--t"])
    def test_one_weight_with_counts_rejected(self, capsys, counts_file, weight):
        code, out, err = run(capsys, "solve", "--counts", counts_file,
                             weight, "2")
        assert (code, out) == (2, "")
        assert "give either --counts or --s/--t, not both" in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_counts_rejected(self, capsys, tmp_path, literal):
        path = tmp_path / "counts.json"
        path.write_text('{"n": 2, "kind": "full", "w": [[4, %s], [2, 4]]}'
                        % literal)
        code, out, err = run(capsys, "solve", "--counts", str(path),
                             "--method", "em")
        assert code == 2
        assert out == ""
        assert "weight w[0][1]" in err

    @pytest.mark.parametrize("data, message", [
        ([1, 2], "must be a JSON object"),
        ({"kind": "full"}, "full weight table lacks n, w"),
        ({"kind": "full", "n": 2}, "full weight table lacks w"),
        ({"kind": "symmetric", "n": 4, "s": 2}, "symmetric weight table lacks t"),
        ({"kind": "symmetric", "s": 2, "t": 1}, "symmetric weight table lacks n"),
        ({"kind": "full", "n": 2, "w": 5}, "w must be a list of rows"),
        ({"kind": "full", "n": 2, "w": [5, [2, 4]]}, "w must be a list of rows"),
        ({"kind": "full", "n": 2, "w": [[None, 2], [2, 4]]}, "None is not a number"),
        ({"kind": "full", "n": 2, "w": [[{"a": 1}, 2], [2, 4]]},
         "{'a': 1} is not a number"),
        ({"kind": "full", "n": None, "w": [[4, 2], [2, 4]]}, "None is not a number"),
        ({"kind": "symmetric", "n": 4, "s": [2], "t": 1}, "[2] is not a number"),
        ({"kind": "full", "n": 2.7, "w": [[4, 2], [2, 4]]},
         "table side n must be an integer, got 2.7"),
        ({"kind": ["full"], "n": 2, "w": [[4, 2], [2, 4]]},
         "unknown weight table kind ['full']"),
        ({"kind": "symmetric", "n": 4, "s": "1/0", "t": 1},
         "'1/0' has a zero denominator"),
        ({"kind": "full", "n": "1/0", "w": [[4, 2], [2, 4]]},
         "'1/0' has a zero denominator"),
        ({"kind": "full", "n": 2, "w": [[4, "1/0"], [2, 4]]},
         "'1/0' has a zero denominator"),
        ({"kind": "full", "n": 2, "w": [[10 ** 400, 1], [1, 1]]},
         "weight w[0][0] is outside the float range"),
    ], ids=["list", "full-empty", "full-no-w", "symmetric-no-t", "symmetric-no-n",
            "w-number", "row-number", "entry-null", "entry-object", "n-null",
            "s-list", "n-fractional", "kind-list", "s-zero-denominator",
            "n-zero-denominator", "w-zero-denominator", "w-beyond-float"])
    def test_malformed_counts_file_exits_two(self, capsys, tmp_path, data, message):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "solve", "--counts", str(path), "--method", "em",
                             "--starts", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("argv, flag", [
        (["verify", "--s", "1/0", "--t", "1"], "--s"),
        (["candidates", "--s", "2", "--t", "0/0"], "--t"),
    ])
    def test_zero_denominator_weight_flag_exits_two(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_n_below_two_exits_two(self, capsys):
        code, out, err = run(capsys, "solve", "--n", "1", "--s", "2", "--t", "1",
                             "--starts", "2")
        assert (code, out) == (2, "")
        assert err == "error: multistart needs n >= 2\n"

    def test_em_on_a_zero_row_and_column(self, capsys, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({"n": 3, "kind": "full",
                                    "w": [[5, 0, 2], [0, 0, 0], [2, 0, 1]]}))
        code, out, err = run(capsys, "solve", "--method", "em", "--counts", str(path),
                             "--starts", "3", "--seed", "1")
        assert code == 0
        assert err == "" and "NaN" not in out
        # two classes fit the 2 x 2 table of the counted cells exactly
        saturated = 5 * math.log(0.5) + 4 * math.log(0.2) + math.log(0.1)
        assert abs(json.loads(out)["best_loglik"] - saturated) < 1e-6

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_em_golden_bytes(self, capsys, fmt):
        # recorded from the batched SQUAREM EM, which matches the per-start
        # reference loop in test_solvers bit for bit
        code, out, err = run(capsys, "solve", "--method", "em", "--starts", "10",
                             "--seed", "1", "--format", fmt)
        assert code == 0
        assert err == ""
        assert out.encode("utf-8") == (GOLDEN / f"solve_em.{fmt}").read_bytes()

    def test_non_finite_symmetric_weight_rejected(self, capsys):
        code, _, err = run(capsys, "solve", "--s", "nan", "--t", "1")
        assert code == 2
        assert "weight s" in err

    def test_solver_failure_exits_three(self, capsys, monkeypatch):
        from swissfrancs.core import ConvergenceError
        import swissfrancs.cli as cli_mod

        def boom(*args, **kwargs):
            raise ConvergenceError("no run converged")

        monkeypatch.setattr(cli_mod, "multistart", boom)
        code, _, err = run(capsys, "solve", "--s", "2", "--t", "1")
        assert code == 3
        assert "solver failure" in err

    @pytest.mark.parametrize("flags, flag", [
        (["--classes", "3"], "--classes"),
        (["--method", "newton", "--classes", "2"], "--classes"),
        (["--method", "em", "--cluster-eps", "1e-3"], "--cluster-eps"),
        (["--method", "em", "--n", "5"], "--n 5"),
        (["--n", "5"], "--n 5"),
    ], ids=["classes", "newton-classes", "em-cluster-eps", "em-n", "newton-n"])
    def test_flags_the_method_ignores_rejected(self, capsys, counts_file,
                                                flags, flag):
        code, out, err = run(capsys, "solve", "--counts", counts_file,
                             *flags, "--starts", "2")
        assert code == 2
        assert out == ""
        assert flag in err

    def test_n_other_than_the_default_table_rejected(self, capsys):
        code, out, err = run(capsys, "solve", "--n", "6", "--starts", "2")
        assert (code, out) == (2, "")
        assert "--n 6 does not match the side 4" in err

    def test_n_matching_the_table_accepted(self, capsys, counts_file):
        code, out, _ = run(capsys, "solve", "--counts", counts_file,
                           "--method", "em", "--n", "4", "--starts", "2")
        assert code == 0
        assert json.loads(out)["best"]["point"]["n"] == 4

    def test_loose_tol(self, capsys):
        code, out, _ = run(capsys, "solve", "--tol", "1e-4", "--starts", "20",
                           "--seed", "1")
        assert code == 0
        classes = {c["classification"] for c in json.loads(out)["clusters"]}
        assert classes == {"unclassified"}

    def test_text_and_csv_formats(self, capsys):
        code, out, _ = run(capsys, "solve", "--s", "2", "--t", "1",
                           "--starts", "15", "--format", "text")
        assert code == 0
        assert "best log-likelihood" in out
        code, out, _ = run(capsys, "solve", "--s", "2", "--t", "1",
                           "--starts", "15", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["cluster", "loglik", "size", "classification",
                           "residual"]


class TestCandidates:
    def test_winner_and_sum_one_entries(self, capsys):
        code, out, _ = run(capsys, "candidates", "--s", "2", "--t", "1")
        assert code == 0
        data = json.loads(out)
        assert data["winner"] == "++--"
        assert data["winner_sum_one"]["entries"][0] == \
            ["3/40", "3/40", "1/20", "1/20"]
        patterns = [c["pattern"] for c in data["candidates"]]
        assert patterns == ["+++-", "++--", "++0-", "+00-"]

    def test_exact_three_one(self, capsys):
        code, out, _ = run(capsys, "candidates", "--s", "3", "--t", "1",
                           "--exact")
        assert code == 0
        data = json.loads(out)
        winner = [c for c in data["candidates"] if c["pattern"] == "++--"][0]
        assert winner["matrix"]["entries"][0][0] == "4/3"
        assert data["winner_sum_one"]["entries"][0][0] == "1/12"

    def test_equal_weights_exit_two(self, capsys):
        code, _, err = run(capsys, "candidates", "--s", "1", "--t", "1")
        assert code == 2

    def test_exact_requires_integers(self, capsys):
        code, _, err = run(capsys, "candidates", "--s", "2.5", "--t", "1",
                           "--exact")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_likelihood_too_long_to_print(self, capsys, fmt):
        code, out, _ = run(capsys, "candidates", "--s", "1000", "--t", "1",
                           "--format", fmt)
        assert code == 0
        if fmt == "json":
            assert all("loglik_30" in c for c in json.loads(out)["candidates"])
        elif fmt == "text":
            assert out.count("log L = ") == 4
        else:
            rows = list(csv.DictReader(out.splitlines()))
            assert [r["likelihood"] for r in rows] == [""] * 4

    def test_weights_past_the_exact_bound(self, capsys):
        # 4 s + 12 t = 400012: the exact likelihood took over 20 s
        code, out, _ = run(capsys, "candidates", "--s", "100000", "--t", "1")
        assert code == 0
        data = json.loads(out)
        assert data["winner"] == "++--"
        assert all("loglik_30" in c and "likelihood" not in c
                   for c in data["candidates"])
        code, _, err = run(capsys, "candidates", "--s", "100000", "--t", "1",
                           "--exact")
        assert code == 2
        assert "4 s + 12 t <= 20000" in err

    def test_near_equal_weights(self, capsys):
        # the four log L agree to 45 digits here
        code, out, _ = run(capsys, "candidates", "--s", "10000000000000000000001",
                           "--t", "10000000000000000000000")
        assert code == 0
        data = json.loads(out)
        assert data["winner"] == "++--"
        assert len({c["loglik_30"] for c in data["candidates"]}) == 4

    @pytest.mark.parametrize("fmt, suffix", [("json", "json"), ("text", "txt"),
                                             ("csv", "csv")])
    @pytest.mark.parametrize("s", [2, 1000])
    def test_candidates_golden_bytes(self, capsys, s, fmt, suffix):
        # 1000:1 prints the 30-digit log in place of the exact likelihood
        code, out, err = run(capsys, "candidates", "--s", str(s), "--t", "1",
                             "--format", fmt)
        assert code == 0
        assert err == ""
        expected = (GOLDEN / f"candidates_{s}_1.{suffix}").read_bytes()
        assert out.encode("utf-8") == expected

    def test_output_does_not_depend_on_the_int_to_str_limit(self):
        # PYTHONINTMAXSTRDIGITS=0 lifts Python's limit on printing integers
        # and 640 lowers it; L is printed the same way under each, and
        # 1000:1 keeps log L
        script = (
            "import contextlib, io, json\n"
            "from swissfrancs.cli import main\n"
            "outs = []\n"
            "for s in ('100', '1000'):\n"
            "    for fmt in ('json', 'text', 'csv'):\n"
            "        with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "            main(['candidates', '--s', s, '--t', '1', '--format', fmt])\n"
            "        outs.append(out.getvalue())\n"
            "print(json.dumps(outs))\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        runs = []
        for limit in (None, "0", "640"):
            run_env = env if limit is None else {**env, "PYTHONINTMAXSTRDIGITS": limit}
            done = subprocess.run([sys.executable, "-c", script], env=run_env,
                                  capture_output=True, text=True, check=True)
            runs.append(json.loads(done.stdout))
        assert runs[0] == runs[1] == runs[2]
        assert [out.encode("utf-8") for out in runs[0][3:]] == [
            (GOLDEN / f"candidates_1000_1.{suffix}").read_bytes()
            for suffix in ("json", "txt", "csv")]
        assert "L = " in runs[0][1] and "log L" not in runs[0][1]

    def test_solver_options_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["candidates", "--s", "2", "--t", "1", "--seed", "3"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestVerify:
    def test_swiss_certificate(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--s", "2", "--t", "1",
                           "--starts", "40")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "CERTIFIED_CANDIDATE_MAX"
        assert data["winner_sum_one"]["entries"] == \
            [["3/40", "3/40", "1/20", "1/20"],
             ["3/40", "3/40", "1/20", "1/20"],
             ["1/20", "1/20", "3/40", "3/40"],
             ["1/20", "1/20", "3/40", "3/40"]]

    def test_loose_tol_certifies(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "4", "--s", "2", "--t", "1",
                             "--starts", "20", "--seed", "1", "--tol", "1e-6")
        assert (code, err) == (0, "")
        assert json.loads(out)["verdict"] == "CERTIFIED_CANDIDATE_MAX"

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "nan"), ("--tol", "inf"), ("--cluster-eps", "nan")])
    def test_non_finite_solver_setting_rejected(self, capsys, flag, value):
        code, out, err = run(capsys, "verify", "--starts", "2", flag, value)
        assert (code, out) == (2, "")
        assert f"{flag[2:].replace('-', '_')} must be finite" in err

    def test_block_support_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "6", "--s", "2", "--t", "1",
                           "--starts", "30")
        assert code == 0
        assert json.loads(out)["verdict"] == "SUPPORTED"

    def test_inconclusive_exits_four(self, capsys, monkeypatch):
        import swissfrancs.cli as cli_mod

        real_certify = cli_mod.certify

        def downgraded(n, s, t, cfg):
            cert = real_certify(n, s, t, cfg)
            object.__setattr__(cert, "verdict", "INCONCLUSIVE")
            return cert

        monkeypatch.setattr(cli_mod, "certify", downgraded)
        code, _, _ = run(capsys, "verify", "--n", "4", "--s", "2", "--t", "1",
                         "--starts", "10")
        assert code == 4

    def test_search_without_a_converged_start_exits_four(self, capsys):
        # one Newton iteration leaves the one start short of tol at 1000:1
        code, out, err = run(capsys, "verify", "--n", "4", "--s", "1000", "--t", "1",
                             "--starts", "1", "--max-iter", "1")
        assert code == 4
        assert err == ""
        data = json.loads(out)
        assert data["verdict"] == "INCONCLUSIVE"
        assert data["multistart"] is None
        assert data["checks"][-1] == {
            "name": "multistart_dominance", "passed": False,
            "detail": "search failed: no multistart run converged"}

    def test_lemma_f3(self, capsys):
        code, out, _ = run(capsys, "verify", "--lemma", "f3")
        assert code == 0
        data = json.loads(out)
        assert data["max_value"] < -549 / 500

    def test_lemma_f1_text(self, capsys):
        code, out, _ = run(capsys, "verify", "--lemma", "f1", "--format", "text")
        assert code == 0
        assert "1/25" in out

    def test_lemma_factor(self, capsys):
        code, out, _ = run(capsys, "verify", "--lemma", "factor")
        assert code == 0
        data = json.loads(out)
        assert data["remainder_zero"] is True
        assert data["cofactor_constant"] == "2"

    def test_lemma_tailpair(self, capsys):
        code, out, _ = run(capsys, "verify", "--lemma", "tailpair")
        assert code == 0

    def test_lemma_bounds_and_order(self, capsys):
        for lemma in ("bounds", "order", "fpoly"):
            code, out, _ = run(capsys, "verify", "--lemma", lemma)
            assert code == 0, lemma
            assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    @pytest.mark.parametrize("lemma", list(LEMMAS))
    def test_every_lemma_every_format(self, capsys, lemma, fmt):
        code, out, err = run(capsys, "verify", "--lemma", lemma,
                             "--format", fmt)
        assert code == 0
        assert err == ""
        if fmt == "json":
            data = json.loads(out)
            assert data["lemma"] == lemma
            # f3 and factor keep the field names of their reports
            key = {"f3": "below_reference_bound",
                   "factor": "remainder_zero"}.get(lemma, "passed")
            assert data[key] is True
        elif fmt == "text":
            assert out.strip()
        else:
            assert out == f"lemma,passed\n{lemma},True\n"

    def test_lemma_choices_come_from_registry(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        lemma = next(a for a in sub.choices["verify"]._actions
                     if a.dest == "lemma")
        assert tuple(lemma.choices) == tuple(LEMMAS) == (
            "bounds", "order", "fpoly", "f1", "f3", "factor", "tailpair")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("lemma", ["f1", "tailpair", "factor", "order",
                                       "bounds"])
    def test_lemma_golden_bytes(self, capsys, lemma, fmt):
        # fpoly and f3 print floats from eigenvalue and grid arithmetic
        # that can differ in the last bits between BLAS builds
        code, out, err = run(capsys, "verify", "--lemma", lemma,
                             "--format", fmt)
        assert code == 0
        assert err == ""
        suffix = "json" if fmt == "json" else "txt"
        expected = (GOLDEN / f"lemma_{lemma}.{suffix}").read_bytes()
        assert out.encode("utf-8") == expected

    def test_bounds_need_ratio_two(self, capsys):
        for lemma in ("bounds", "f1", "f3", "factor", "tailpair"):
            code, out, err = run(capsys, "verify", "--lemma", lemma,
                                 "--s", "3", "--t", "1")
            assert code == 2, lemma
            assert out == ""
            assert "weight ratio 2" in err
        code, out, _ = run(capsys, "verify", "--lemma", "order",
                           "--s", "3", "--t", "1")
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("flags", [["--starts", "3"], ["--n", "7"],
                                       ["--seed", "1"], ["--tol", "1e-9"],
                                       ["--max-iter", "5"],
                                       ["--cluster-eps", "1e-3"]],
                             ids=lambda flags: flags[0])
    def test_lemma_rejects_solver_flags(self, capsys, flags):
        code, out, err = run(capsys, "verify", "--lemma", "f1", *flags,
                             "--format", "csv")
        assert code == 2
        assert out == ""
        assert flags[0] in err

    def test_resolution_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--lemma", "f3", "--resolution", "20"])
        assert exc.value.code == 2
        assert "--resolution" in capsys.readouterr().err

    def test_weights_given_together(self, capsys):
        for flag in ("--s", "--t"):
            code, out, err = run(capsys, "verify", flag, "3")
            assert code == 2
            assert out == ""
            assert "--s and --t must be given together" in err


@pytest.mark.parametrize("argv, name", [
    ("verify --n 3 --s 1 --t 1e-400", "weight t"),
    ("solve --n 3 --s 1 --t 1e-400", "weight t"),
    ("verify --n 3 --s 1e400 --t 1", "weight s"),
    ("candidates --s 1e400 --t 1", "weight s"),
    ("verify --n 3 --s 1e300 --t 1e-300", "weight ratio s/t"),
])
def test_weights_outside_the_float_range_exit_two(capsys, argv, name):
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err == f"error: {name} is outside the float range\n"


def test_extreme_ratio_is_inconclusive_not_an_error(capsys):
    # at 1e308:1 the search overflows; it answers INCONCLUSIVE with the
    # reason instead of exiting on a linear-algebra error
    code, out, err = run(capsys, *"verify --n 4 --s 1e308 --t 1 --starts 5 --seed 1".split())
    assert code == EXIT_INCONCLUSIVE
    assert err == ""
    assert "search failed: no multistart run converged" in out


class TestOutputs:
    def test_atomic_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "candidates", "--s", "2", "--t", "1",
                           "--out", str(out_path))
        assert code == 0
        assert out == ""
        data = json.loads(out_path.read_text())
        assert data["winner"] == "++--"
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".swiss")]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for path in (first, second):
            code, _, _ = run(capsys, "solve", "--s", "2", "--t", "1",
                             "--starts", "20", "--seed", "9",
                             "--out", str(path))
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_text_matches_json_values(self, capsys):
        code, json_out, _ = run(capsys, "solve", "--s", "2", "--t", "1",
                                "--starts", "15", "--seed", "3")
        code2, text_out, _ = run(capsys, "solve", "--s", "2", "--t", "1",
                                 "--starts", "15", "--seed", "3",
                                 "--format", "text")
        assert code == code2 == 0
        best = json.loads(json_out)["best_loglik"]
        assert f"{best:.17g}" in text_out


def expand_choices(line: str) -> list:
    """line once for each option of its {a,b} choices, in order."""
    choice = re.search(r"\{([^{}]*)\}", line)
    if choice is None:
        return [line]
    return [out for option in choice.group(1).split(",")
            for out in expand_choices(
                line[:choice.start()] + option + line[choice.end():])]


def test_readme_cli_examples_parse():
    # every `swissfrancs ...` line of the README's CLI section, comments
    # dropped, parses; nothing runs
    section = README.read_text().split("\n## CLI\n")[1].split("\n## ")[0]
    lines = [expanded for line in section.splitlines()
             if line.startswith("swissfrancs ")
             for expanded in expand_choices(line.split("#")[0])]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
