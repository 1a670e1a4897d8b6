"""CLI behavior: determinism, exit codes, report schema, exact printing."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

from qasc import cli
from qasc.core import TSeries
from qasc.identities import CATALOG, IdentityCheck


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
        # every exact identity at order 8, two trials, seed 42: the
        # runtime-stripped report is pinned byte for byte, so a change to any
        # builder must reproduce its draws, statuses and rendering exactly
        code, rep = run_verify(
            tmp_path, "golden.json", ["--suite", "exact", "--order", "8", "--trials", "2", "--seed", "42"]
        )
        assert code == 0
        digest = hashlib.sha256(normalize(rep).encode()).hexdigest()
        assert digest == "c86cbbbc2acb06e93b7d349ecd32c3fdc1ffed994f160ef76f9c0ba33ca0ff86"

    def test_usage_errors(self, tmp_path, capsys):
        assert cli.main(["verify", "--ids", "ID-99", "--out", str(tmp_path / "x.json")]) == 2
        assert cli.main(["verify", "--order", "2", "--out", str(tmp_path / "x.json")]) == 2
        assert cli.main(["verify", "--trials", "0", "--out", str(tmp_path / "x.json")]) == 2

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

    def test_nonconvergence_exit_code(self, tmp_path, monkeypatch):
        import dataclasses

        from qasc.numeric import NUMERIC_CATALOG, NonConvergence

        def blow_up(chk, cfg):
            raise NonConvergence("forced for the exit-code contract")

        stuck = dataclasses.replace(NUMERIC_CATALOG["NUM-3"], run=blow_up)
        monkeypatch.setitem(NUMERIC_CATALOG, "NUM-3", stuck)
        code, rep = run_verify(
            tmp_path, "h.json", ["--suite", "numeric", "--ids", "NUM-3", "--precision", "128"]
        )
        assert code == 3
        assert rep["entries"][0]["status"] == "no-convergence"

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

    def test_qpoch(self, capsys):
        assert cli.main(["eval", "qpoch", "--a", "1/2", "--q", "1/2", "--n", "2"]) == 0
        assert capsys.readouterr().out.strip() == "3/8"

    def test_pole_surfaces_as_usage_error(self, capsys):
        code = cli.main(["eval", "asc-new-phi", "--n", "3", "--q", "1/2", "--d", "2"])
        assert code == 2
        assert "vanished" in capsys.readouterr().err

    def test_bad_fraction(self, capsys):
        assert cli.main(["eval", "qbinom", "--n", "3", "--k", "1", "--q", "zap"]) == 2


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        out = tmp_path / "m.json"
        proc = subprocess.run(
            [sys.executable, "-m", "qasc", "verify", "--ids", "ID-9", "--order", "5",
             "--trials", "1", "--seed", "1", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
