"""CLI behavior: determinism, exit codes, report schema, exact printing."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qasc import cli
from qasc.core import ParamSet, TSeries
from qasc.identities import CATALOG, IdentityCheck
from qasc.polys import _FAMILY_ARITY, PolyFamily


def run_verify(tmp_path, name, args):
    out = tmp_path / name
    code = cli.main(["verify", "--out", str(out)] + args)
    with open(out, "r", encoding="utf-8") as fh:
        return code, json.load(fh)


def normalize(report):
    for entry in report["entries"]:
        entry["runtime_ms"] = 0
    return json.dumps(report, sort_keys=False)


class TestVerifyCommand:
    def test_exact_subset_passes(self, tmp_path):
        code, rep = run_verify(
            tmp_path, "r.json", ["--suite", "exact", "--ids", "ID-9,ID-10", "--order", "6", "--trials", "2", "--seed", "7"]
        )
        assert code == 0
        assert rep["suite"] == "exact" and rep["seed"] == 7 and rep["order"] == 6
        assert [e["id"] for e in rep["entries"]] == ["ID-9", "ID-9", "ID-10", "ID-10"]
        assert all(e["status"] == "pass" for e in rep["entries"])

    def test_determinism_modulo_runtime(self, tmp_path):
        args = ["--suite", "exact", "--ids", "ID-1,ID-9", "--order", "6", "--trials", "2", "--seed", "123"]
        _, rep1 = run_verify(tmp_path, "a.json", args)
        _, rep2 = run_verify(tmp_path, "b.json", args)
        assert normalize(rep1) == normalize(rep2)

    def test_filter_independent_draws(self, tmp_path):
        # the same (id, trial) draws the same parameters whatever else runs
        _, solo = run_verify(tmp_path, "c.json", ["--ids", "ID-9", "--order", "5", "--trials", "1", "--seed", "9"])
        _, multi = run_verify(tmp_path, "d.json", ["--ids", "ID-9,ID-11", "--order", "5", "--trials", "1", "--seed", "9"])
        e_solo = [e for e in multi["entries"] if e["id"] == "ID-9"]
        assert solo["entries"][0]["params"] == e_solo[0]["params"]

    def test_failure_exit_code(self, tmp_path, monkeypatch):
        broken = IdentityCheck(
            "ID-9",
            "broken on purpose",
            (),
            lambda ps, order: [("", TSeries.one(order), TSeries.zeros(order))],
        )
        monkeypatch.setitem(CATALOG, "ID-9", broken)
        code, rep = run_verify(tmp_path, "e.json", ["--ids", "ID-9", "--order", "5", "--trials", "1", "--seed", "3"])
        assert code == 1
        assert rep["entries"][0]["status"] == "fail"
        assert rep["entries"][0]["first_mismatch"]["power"] == 0

    def test_builder_error_exit_code(self, tmp_path, monkeypatch):
        # an exception other than PoleError is a defect, reported as such
        def divides_by_zero(ps, order):
            return [("", TSeries.one(order), TSeries.one(order).scale(1 / Fraction(0)))]

        monkeypatch.setitem(CATALOG, "ID-9", IdentityCheck("ID-9", "broken", (), divides_by_zero))
        code, rep = run_verify(tmp_path, "e.json", ["--ids", "ID-9,ID-10", "--order", "5", "--trials", "1"])
        assert code == cli.EXIT_ERROR == 4
        assert [e["status"] for e in rep["entries"]] == ["error", "pass"]
        assert rep["entries"][0]["first_mismatch"] == {
            "power": None, "sub": "", "lhs": "ZeroDivisionError: Fraction(1, 0)", "rhs": ""
        }

    def test_golden_exact_report(self, tmp_path):
        # every exact identity at order 8, two trials, seeds 42 and 101: the
        # runtime-stripped report is pinned byte for byte, so a change to any
        # builder or kernel must reproduce its draws, statuses and rendering
        # exactly on two sets of draws
        golden = {
            42: "c86cbbbc2acb06e93b7d349ecd32c3fdc1ffed994f160ef76f9c0ba33ca0ff86",
            101: "46de8a5728eff2d6bc4bbeb9247dc11936b8e2428743e93e344a65fe6b2cba59",
        }
        for seed, pinned in golden.items():
            code, rep = run_verify(
                tmp_path, f"golden{seed}.json",
                ["--suite", "exact", "--order", "8", "--trials", "2", "--seed", str(seed)],
            )
            assert code == 0
            assert hashlib.sha256(normalize(rep).encode()).hexdigest() == pinned, seed

    def test_golden_exact_report_o12(self, tmp_path, capsys):
        # the benchmark's exact-o12 configuration, order 12 x 5 trials at
        # its two sub-seeds, pinned on Fraction-dict series
        golden = {
            42: "f58b901fd85664cf5905aa75da27209c07768d3feecab64bd86386c2450153d8",
            1042: "512ab0a5ae2fae358ac9fac138e4b2f5875fd0b280b3d0227c295dbcc869ea3a",
        }
        for seed, pinned in golden.items():
            code, rep = run_verify(
                tmp_path, f"o12-{seed}.json",
                ["--suite", "exact", "--order", "12", "--trials", "5", "--seed", str(seed)],
            )
            assert code == 0
            assert hashlib.sha256(normalize(rep).encode()).hexdigest() == pinned, seed

    def test_golden_exact_report_o20(self, tmp_path):
        # the stress point, order 20 x 2 trials at seed 42, pinned like the
        # order-8 and order-12 reports
        code, rep = run_verify(tmp_path, "o20.json",
                               ["--suite", "exact", "--order", "20", "--trials", "2", "--seed", "42"])
        assert code == 0 and len(rep["entries"]) == 26
        assert hashlib.sha256(normalize(rep).encode()).hexdigest() == (
            "78544aaee112fb8197fdd3086c71153fdef55084361720e2e6404ac0e63dea31")

    def test_golden_exact_report_o40(self, tmp_path):
        # order 40 x 1 trial at seed 42, pinned like the reports above
        code, rep = run_verify(tmp_path, "o40.json",
                               ["--suite", "exact", "--order", "40", "--trials", "1", "--seed", "42"])
        assert code == 0 and len(rep["entries"]) == 13
        assert hashlib.sha256(normalize(rep).encode()).hexdigest() == (
            "dd87e2b70eb3b12b99874c6041ae5dfe360d1e641705a5f25de646c021e9f761")

    def test_usage_errors(self, tmp_path, capsys):
        assert cli.main(["verify", "--ids", "ID-99", "--out", str(tmp_path / "x.json")]) == 2
        assert cli.main(["verify", "--order", "2", "--out", str(tmp_path / "x.json")]) == 2
        assert cli.main(["verify", "--trials", "0", "--out", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("suite, ids, outside", [("exact", "ID-9,NUM-3", "NUM-3"),
                                                     ("numeric", "NUM-3,ID-9", "ID-9")])
    def test_ids_outside_suite_is_usage_error(self, tmp_path, capsys, suite, ids, outside):
        # --ids filters within --suite: an id of the other suite is refused,
        # and the message names the suite, before any check runs
        out = tmp_path / "s.json"
        args = ["verify", "--suite", suite, "--ids", ids, "--order", "4", "--trials", "1",
                "--precision", "128", "--out", str(out)]
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: identity ids [{outside!r}] are not in suite {suite!r}\n"
        assert captured.out == "" and not out.exists()

    def test_ids_span_suite_all(self, tmp_path):
        code, rep = run_verify(tmp_path, "all.json", ["--ids", "NUM-3,ID-9", "--order", "4",
                                                      "--trials", "1", "--precision", "128"])
        assert code == 0 and rep["suite"] == "all"
        assert [e["id"] for e in rep["entries"]] == ["ID-9", "NUM-3"]

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_report_is_usage_error(self, tmp_path, capsys, where):
        out = tmp_path if where == "directory" else tmp_path / "missing" / "r.json"
        args = ["verify", "--ids", "ID-9", "--order", "4", "--trials", "1", "--out", str(out)]
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write report {out}: ")
        # refused before the first check ran
        assert "trial" not in captured.out

    def test_config_file_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "exact", "ids": "ID-9", "order": 6, "trials": 1, "seed": 5}))
        out = tmp_path / "f.json"
        code = cli.main(["verify", "--config", str(cfg), "--order", "7", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["order"] == 7  # flag beats config
        assert [e["id"] for e in rep["entries"]] == ["ID-9"]

    def test_bad_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"unknown_key": 1}))
        assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "y.json")]) == 2

    @pytest.mark.parametrize(
        "body",
        [{"order": "12"}, {"trials": 2.5}, {"seed": True}, {"suite": "fast"}, 5],
    )
    def test_mistyped_config_is_usage_error(self, tmp_path, capsys, body):
        # each file value must have its flag's type; a wrong one is a usage
        # error (exit 2), not a traceback read as a verification failure
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(body))
        assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "y.json")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_nonconvergence_exit_code(self, tmp_path, monkeypatch):
        from qasc.numeric import NUMERIC_CATALOG, NonConvergence, NumericCheck

        def blow_up(chk, cfg):
            raise NonConvergence("forced for the exit-code contract")

        c = NUMERIC_CATALOG["NUM-3"]
        stuck = NumericCheck(c.id, c.description, c.params, blow_up)
        monkeypatch.setitem(NUMERIC_CATALOG, "NUM-3", stuck)
        code, rep = run_verify(
            tmp_path, "h.json", ["--suite", "numeric", "--ids", "NUM-3", "--precision", "128"]
        )
        assert code == 3
        # the whole entry: the message as error_budget, and no rel_diff
        entry = {k: v for k, v in rep["entries"][0].items() if k != "runtime_ms"}
        assert entry == {"id": "NUM-3", "description": c.description,
                         "params": {k: str(v) for k, v in c.params.items()},
                         "status": "no-convergence",
                         "error_budget": "forced for the exit-code contract",
                         "precision_bits": 128, "trial": 0}

    def test_numeric_entry_schema(self, tmp_path):
        code, rep = run_verify(
            tmp_path,
            "g.json",
            ["--suite", "numeric", "--ids", "NUM-3", "--precision", "128", "--tail-tol", "1e-25"],
        )
        assert code == 0
        entry = rep["entries"][0]
        assert entry["id"] == "NUM-3" and entry["status"] == "pass"
        assert "rel_diff" in entry and entry["precision_bits"] == 128
        assert list(entry) == ["id", "description", "params", "status", "rel_diff",
                               "error_budget", "precision_bits", "runtime_ms", "trial"]
        assert entry["trial"] == 0

    def test_golden_all_report(self, tmp_path, capsys):
        # --suite all crosses both suites in one run: stdout and the
        # runtime-stripped report are pinned byte for byte
        code, rep = run_verify(tmp_path, "all.json", ["--ids", "ID-9,ID-12,NUM-3,NUM-4", "--order", "6",
                                                      "--trials", "2", "--precision", "128"])
        stdout = capsys.readouterr().out.replace(str(tmp_path / "all.json"), "OUT")
        assert code == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "4f01d8c07857c293abd3fc6e89a0d034b88d1863540ab6be272a542ab912286a")
        assert hashlib.sha256(normalize(rep).encode()).hexdigest() == (
            "0531a274dda68b5aa2439efd2f77e8e38764113fc2c83f1fbc895f0dd4987e09")

    @pytest.mark.parametrize("args, err", [
        (["--suite", "all", "--tail-tol", "1e-5", "--out", "r.json"],
         "error: tail_tol must sit well below compare_tol"),
        (["--suite", "numeric", "--tail-tol", "0", "--out", "r.json"], "error: tail_tol must be positive"),
        (["--ids", "ID-9", "--out", ""], "error: cannot write report : No such file or directory"),
        (["--ids", "ID-9,NUM-3", "--precision", "64", "--tail-tol", "1e-15", "--compare-tol", "inf",
          "--out", "r.json"], "error: compare_tol must be at most 1e-12"),
        (["--ids", "ID-9,NUM-3", "--precision", "64", "--compare-tol", "1e-6", "--out", "r.json"],
         "error: compare_tol must be at most 1e-12"),
        (["--ids", ",", "--out", "r.json"], "error: --ids names no check: ','"),
        (["--ids", "", "--out", "r.json"], "error: --ids names no check: ''"),
    ], ids=["tail-tol", "tail-tol 0", "empty out", "compare-tol inf", "compare-tol 1e-6", "ids comma", "ids empty"])
    def test_bad_setting_refused_before_first_check(self, tmp_path, monkeypatch, capsys, args, err):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["verify", "--order", "4", "--trials", "1"] + args) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [err]
        assert "trial" not in captured.out and list(tmp_path.iterdir()) == []

    def test_numeric_setting_unread_by_exact_suite(self, tmp_path):
        # no numeric check runs, so the numeric settings are never read
        code, rep = run_verify(tmp_path, "x.json", ["--suite", "exact", "--ids", "ID-9", "--order", "4",
                                                    "--trials", "1", "--tail-tol", "1e-5"])
        assert code == 0 and [e["status"] for e in rep["entries"]] == ["pass"]

    def test_numeric_error_is_report_entry(self, tmp_path, monkeypatch):
        # an exception other than NonConvergence is a defect in the check,
        # reported as such like an exact builder's
        from qasc.numeric import NUMERIC_CATALOG, NumericCheck

        def divides_by_zero(chk, cfg):
            return 1 / 0

        c = NUMERIC_CATALOG["NUM-3"]
        broken = NumericCheck(c.id, c.description, c.params, divides_by_zero)
        monkeypatch.setitem(NUMERIC_CATALOG, "NUM-3", broken)
        code, rep = run_verify(tmp_path, "n.json", ["--suite", "numeric", "--ids", "NUM-3,NUM-4",
                                                    "--precision", "128"])
        assert code == cli.EXIT_ERROR == 4
        assert [e["status"] for e in rep["entries"]] == ["error", "pass"]
        entry = rep["entries"][0]
        assert entry["error_budget"] == "ZeroDivisionError: division by zero"
        assert "rel_diff" not in entry

    @pytest.mark.parametrize("ids, statuses, want", [
        ("ID-9,NUM-3,NUM-4", ["fail", "no-convergence", "pass"], 3),
        ("ID-9,ID-10,NUM-3,NUM-4", ["fail", "error", "no-convergence", "pass"], 4),
    ])
    def test_exit_code_precedence(self, tmp_path, monkeypatch, ids, statuses, want):
        # fail (ID-9), error (ID-10), no-convergence (NUM-3) and pass (NUM-4)
        # in one run: the largest exit code wins, wherever its entry falls
        from qasc.numeric import NUMERIC_CATALOG, NonConvergence, NumericCheck

        def fails(ps, order):
            return [("", TSeries.one(order), TSeries.zeros(order))]

        def raises(ps, order):
            raise RuntimeError("forced")

        def stuck(chk, cfg):
            raise NonConvergence("forced")

        monkeypatch.setitem(CATALOG, "ID-9", IdentityCheck("ID-9", "fails", (), fails))
        monkeypatch.setitem(CATALOG, "ID-10", IdentityCheck("ID-10", "raises", (), raises))
        c = NUMERIC_CATALOG["NUM-3"]
        monkeypatch.setitem(NUMERIC_CATALOG, "NUM-3",
                            NumericCheck(c.id, c.description, c.params, stuck))
        code, rep = run_verify(tmp_path, "p.json", ["--ids", ids, "--order", "4", "--trials", "1",
                                                    "--precision", "128"])
        assert code == want
        assert [e["status"] for e in rep["entries"]] == statuses


class TestEvalCommand:
    def test_asc_new_phi(self, capsys):
        assert cli.main(["eval", "asc-new-phi", "--n", "1", "--q", "1/2", "--a", "1/3",
                         "--b", "0", "--c", "0", "--d", "0", "--e", "0"]) == 0
        assert capsys.readouterr().out.strip() == "x + (2/3)y"

    def test_cauchy_expanded(self, capsys):
        assert cli.main(["eval", "cauchy", "--n", "2", "--q", "1/2"]) == 0
        assert capsys.readouterr().out.strip() == "x^2 - (3/2)xy + (1/2)y^2"

    def test_qbinom(self, capsys):
        assert cli.main(["eval", "qbinom", "--n", "3", "--k", "1", "--q", "1/2"]) == 0
        assert capsys.readouterr().out.strip() == "7/4"

    @pytest.mark.parametrize("k, q, value", [(1, "1", "3"), (2, "-1", "1")])
    def test_qbinom_at_vanishing_denominator(self, capsys, k, q, value):
        # (q;q)_k = 0 at these q; [n;k] is a polynomial in q and has a value
        assert cli.main(["eval", "qbinom", "--n", "3", "--k", str(k), "--q", q]) == 0
        assert capsys.readouterr().out.strip() == value

    def test_qpoch(self, capsys):
        assert cli.main(["eval", "qpoch", "--a", "1/2", "--q", "1/2", "--n", "2"]) == 0
        assert capsys.readouterr().out.strip() == "3/8"

    def test_pole_surfaces_as_usage_error(self, capsys):
        code = cli.main(["eval", "asc-new-phi", "--n", "3", "--q", "1/2", "--d", "2"])
        assert code == 2
        assert "vanished" in capsys.readouterr().err

    def test_bad_fraction(self, capsys):
        assert cli.main(["eval", "qbinom", "--n", "3", "--k", "1", "--q", "zap"]) == 2

    @pytest.mark.parametrize("name", ["x", "y", "a", "q"])
    def test_empty_value_is_usage_error(self, capsys, name):
        # an empty value is no rational, in the variable slots as elsewhere;
        # it must not fall back to the symbol x or y
        flags = {"q": "1/2", "a": "1/3", "x": "1/5", "y": "1/7", name: ""}
        argv = ["eval", "asc-new-phi", "--n", "2"] + [arg for k, v in flags.items()
                                                        for arg in (f"--{k}", v)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == f"error: --{name} expects an exact rational like 1/2, got ''"

    @pytest.mark.parametrize("argv, message", [
        (["asc-classical-phi", "--a", "1/3", "--y", "1/5"],
         "asc_classical_phi reads x only; y must be the symbol y"),
        (["asc-classical-psi", "--a", "1/3", "--y", "0"],
         "asc_classical_psi reads x only; y must be the symbol y"),
        (["qbinom", "--k", "1", "--x", "5"], "qbinom does not read --x"),
        (["qbinom", "--k", "1", "--a", "1/3"], "qbinom does not read --a"),
        (["qpoch", "--a", "1/3", "--k", "9"], "qpoch does not read --k"),
        (["qpoch", "--a", "1/3", "--e", "1/5"], "qpoch does not read --e"),
        (["cauchy", "--k", "1"], "cauchy does not read --k"),
        (["asc-new-phi", "--a", "1/3", "--k", "0"], "asc-new-phi does not read --k"),
    ])
    def test_unread_flag_refused(self, capsys, argv, message):
        # a flag its target does not read is refused, not ignored
        assert cli.main(["eval", argv[0], "--n", "2", "--q", "1/2"] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.strip() == f"error: {message}"

    @pytest.mark.parametrize("family", list(_FAMILY_ARITY))
    def test_every_family_evaluates(self, capsys, family):
        values = dict(a=Fraction(1, 3), b=Fraction(1, 5), c=Fraction(1, 7),
                      d=Fraction(1, 4), e=Fraction(1, 6))
        used = {k: values[k] for k in _FAMILY_ARITY[family]}
        flags = [arg for k, v in used.items() for arg in (f"--{k}", str(v))]
        name = family.replace("_", "-")
        assert cli.main(["eval", name, "--n", "2", "--q", "1/2"] + flags) == 0
        want = PolyFamily(family, ParamSet(q=Fraction(1, 2), **used)).evaluate(2)
        assert capsys.readouterr().out.strip() == str(want)


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        out = tmp_path / "m.json"
        proc = subprocess.run(
            [sys.executable, "-m", "qasc", "verify", "--ids", "ID-9", "--order", "5",
             "--trials", "1", "--seed", "1", "--out", str(out)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


ROOT = Path(__file__).resolve().parent.parent

# the exact suite and eval run without mpmath, and so do importing
# qasc.numeric and a refused numeric setting: mpmath loads with the first
# numeric value.  No qasc module loads dataclasses or inspect, whose imports
# would add to every call's start-up
_COLD_START = """
import json
import sys

import qasc
import qasc.cli


def mpmath_loaded():
    return sorted(m for m in sys.modules if m.startswith("mpmath"))


codes = [
    qasc.cli.main(["verify", "--suite", "exact", "--order", "4", "--trials", "1",
                   "--out", sys.argv[1]]),
    qasc.cli.main(["eval", "qbinom", "--n", "3", "--k", "1", "--q", "1/2"]),
]
loaded = [m for m in ("mpmath", "dataclasses", "inspect") if m in sys.modules]
config = qasc.NumericConfig
from qasc import numeric

after_import = mpmath_loaded()
refused = qasc.cli.main(["verify", "--suite", "numeric", "--precision", "32",
                         "--out", sys.argv[1]])
after_refusal = mpmath_loaded()
star = {}
exec("from qasc import *", star)
inspect_loaded = "inspect" in sys.modules
num3 = numeric.NUMERIC_CATALOG["NUM-3"].execute(numeric.NumericConfig()).status
print(json.dumps([codes, loaded, config is numeric.NumericConfig,
                  [name for name in qasc.__all__ if name not in star],
                  inspect_loaded, after_import, refused, after_refusal, num3]))
"""


class TestColdStart:
    def test_exact_and_eval_leave_numeric_unloaded(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", _COLD_START, str(tmp_path / "r.json")],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [
            [0, 0], [], True, [], False, [], 2, [], "pass"]

# perfbench/tracer.py looks up qasc's entry points by name and perfbench/child.py
# patches three of them; run both against the package as it stands
_BENCH_CONTRACT = """
import json

import tracer
import qasc.cli
from qasc import identities, numeric

t = tracer.Tracer()
tracer.instrument(t)
for owner, name in ((qasc.cli, "verify"), (numeric.NumericCheck, "execute"),
                    (numeric, "integrate_panels")):
    assert callable(getattr(owner, name)), name
check = identities.CATALOG["ID-8"]
rep = qasc.cli.verify(check, identities.trial_paramset(check, 42, 0), 6, 0)
num = numeric.NUMERIC_CATALOG["NUM-3"].execute(numeric.NumericConfig())
# one traced exact-structure pass, and the negative controls of both exact workloads
import structure
statuses = []
structure.run_pass(42, lambda rid, seconds, units, entry: statuses.append(entry["status"]), t)
print(json.dumps([rep.status, num.status, t.calls["identities.verify"],
                  t.calls["numeric.NumericCheck.execute"], len(statuses),
                  sorted(set(statuses)), structure.negative_control("exact-structure", 42),
                  structure.negative_control("exact-o12", 42)]))
"""


class TestBenchmarkContract:
    def test_tracer_instruments_and_runs(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT / "perfbench")]))
        proc = subprocess.run([sys.executable, "-c", _BENCH_CONTRACT], capture_output=True,
                              text=True, env=env, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["pass", "pass", 1, 1, 21, ["pass"], "fail", "fail"]
