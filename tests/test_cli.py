import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from intervalorders import cli
from intervalorders.cli import RunConfig, main

PAIR_CONFIG = {
    "pair": {
        "a": {"family": "schur_pair", "f": {"kind": "power", "gamma": 2.0}},
        "b": {"family": "schur_pair", "f": {"kind": "power", "gamma": 0.5}},
    }
}

COLLISION_CONFIG = {
    "pair": {
        "a": {"family": "quasi_linear", "generator": {"kind": "logarithm"}, "weight": 0.3},
        "b": {"family": "quasi_linear", "generator": {"kind": "logarithm"}, "weight": 0.7},
    }
}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestCheckPair:
    def test_admissible_pair(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", PAIR_CONFIG)
        assert main(["check-pair", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["outcome"] == "admissible"
        assert out["rule"] == "pair-mean-shape"

    def test_collision_pair_reports_witness(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", COLLISION_CONFIG)
        assert main(["check-pair", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["outcome"] == "not_admissible"
        assert out["witness"]["residual_a"] <= 1e-9

    def test_output_file(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", PAIR_CONFIG)
        target = tmp_path / "verdict.json"
        assert main(["check-pair", "--config", cfg, "--output", str(target)]) == 0
        assert json.loads(target.read_text())["outcome"] == "admissible"


class TestRank:
    def test_ranked_csv(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json",
                         {"order": {"kind": "alpha_beta", "alpha": 0.0, "beta": 1.0}})
        data = tmp_path / "items.csv"
        data.write_text("lo,hi\n0.2,0.9\n0.2,0.3\n0.1,1.0\n")
        out = tmp_path / "ranked.csv"
        assert main(["rank", "--config", cfg, "--input", str(data),
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,lo,hi"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["2", "1", "0"]

    def test_json_input(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json",
                         {"order": {"kind": "alpha_beta", "alpha": 1.0, "beta": 0.0}})
        data = tmp_path / "items.json"
        data.write_text(json.dumps([[0.2, 0.9], [0.2, 0.3]]))
        out = tmp_path / "ranked.csv"
        assert main(["rank", "--config", cfg, "--input", str(data),
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == ["1", "0"]

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json",
                         {"order": {"kind": "alpha_beta", "alpha": 0.5, "beta": 1.0}})
        data = tmp_path / "items.csv"
        rows = "\n".join(f"{k / 37:.6f},{min(1.0, k / 37 + 0.25):.6f}" for k in range(37))
        data.write_text(rows + "\n")
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(["rank", "--config", cfg, "--input", str(data), "--output",
                     str(out1)]) == 0
        assert main(["rank", "--config", cfg, "--input", str(data), "--output",
                     str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestFindCounterexample:
    def test_collision_pair_yields_witness(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", COLLISION_CONFIG)
        assert main(["find-counterexample", "--config", cfg, "--resolution", "100"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["witness"] is not None
        assert out["witness"]["residual_b"] <= 1e-9

    def test_admissible_pair_reports_none(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", PAIR_CONFIG)
        assert main(["find-counterexample", "--config", cfg, "--resolution", "100"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["witness"] is None
        assert "none at resolution 100" in out["note"]


class TestCoincide:
    CONFIG = {
        "orders": [
            {"kind": "pair",
             "a": {"family": "schur_pair", "f": {"kind": "power", "gamma": 2.0}},
             "b": {"family": "schur_pair", "f": {"kind": "power", "gamma": 0.5}}},
            {"kind": "alpha_beta", "alpha": 0.7, "beta": 1.0},
        ]
    }

    def test_reports_disagreement(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", self.CONFIG)
        assert main(["coincide", "--config", cfg, "--resolution", "50"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["coincide"] is False
        assert out["witness"] is not None

    def test_disagreement_csv_dump(self, tmp_path, capsys):
        dump = tmp_path / "disagreements.csv"
        cfg_payload = dict(self.CONFIG)
        cfg_payload["disagreements_csv"] = str(dump)
        cfg = write_json(tmp_path / "cfg.json", cfg_payload)
        assert main(["coincide", "--config", cfg, "--resolution", "50"]) == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "u_lo,u_hi,x_lo,x_hi,order1,order2"
        assert len(lines) > 1


# run with every scipy import failing: the package must import, decide a
# logit-mean pair and run CLI coincide on numpy and the standard library alone
NO_SCIPY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None
import intervalorders
import intervalorders.cli
from intervalorders import Outcome, build_battery, check_pair

case = next(c for c in build_battery()
            if c.label == "logit-mean(w=0.5) vs exponential(2, w=0.5)")
verdict = check_pair(case.a, case.b)
assert verdict.outcome is Outcome.NOT_ADMISSIBLE and verdict.witness is not None, verdict
config, output = sys.argv[1:3]
assert intervalorders.cli.main(
    ["coincide", "--config", config, "--resolution", "30", "--output", output]) == 0
with open(output) as fh:
    assert len(json.load(fh)["alpha_thresholds"]) == 1
loaded = [m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None]
assert not loaded, loaded
"""


class TestRunsWithoutScipy:
    def test_import_verdict_and_coincide(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", TestCoincide.CONFIG)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, cfg, str(tmp_path / "out.json")],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr


class TestBattery:
    def test_table_runs_and_agrees(self, tmp_path):
        out = tmp_path / "battery.txt"
        assert main(["battery", "--output", str(out)]) == 0
        text = out.read_text()
        assert "case" in text.splitlines()[0]
        assert "NO" not in text  # every verdict column shows agreement


class TestExitCodes:
    def test_missing_config_is_io_error(self):
        assert main(["check-pair", "--config", "/nonexistent/cfg.json"]) == 2

    def test_bad_family_is_config_error(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json",
                         {"pair": {"a": {"family": "nope"}, "b": {"family": "k", "w": 0.5}}})
        assert main(["check-pair", "--config", cfg]) == 1

    def test_malformed_input_is_io_error(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json",
                         {"order": {"kind": "alpha_beta", "alpha": 0.0, "beta": 1.0}})
        data = tmp_path / "items.csv"
        data.write_text("lo,hi\n0.2,not-a-number\n")
        assert main(["rank", "--config", cfg, "--input", str(data)]) == 2

    def test_low_resolution_is_config_error(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", PAIR_CONFIG)
        assert main(["check-pair", "--config", cfg, "--resolution", "4"]) == 1
        # zero is a value, not a missing one
        assert main(["check-pair", "--config", cfg, "--resolution", "0"]) == 1

    def test_zero_tolerance_is_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", PAIR_CONFIG)
        assert main(["check-pair", "--config", cfg, "--tol", "0"]) == 1
        assert "tolerance must be positive" in capsys.readouterr().err

    def test_missing_order_spec_is_config_error(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {})
        data = tmp_path / "items.csv"
        data.write_text("0.1,0.2\n")
        assert main(["rank", "--config", cfg, "--input", str(data)]) == 1


class TestSettings:
    """resolution and tol: a flag, else the config, else RunConfig's default."""

    @staticmethod
    def run_config(monkeypatch, argv):
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "check-pair", lambda rc: seen.append(rc) or 0)
        assert main(["check-pair", *argv]) == 0
        return seen[0]

    def test_config_without_either_key_gets_the_defaults(self, tmp_path, monkeypatch):
        rc = self.run_config(monkeypatch, ["--config", write_json(tmp_path / "cfg.json", PAIR_CONFIG)])
        assert (rc.resolution, rc.tol) == (RunConfig.resolution, RunConfig.tol)

    def test_config_keys_and_flags_override_in_turn(self, tmp_path, monkeypatch):
        cfg = write_json(tmp_path / "cfg.json", {**PAIR_CONFIG, "resolution": 120, "tol": 1e-7})
        rc = self.run_config(monkeypatch, ["--config", cfg])
        assert (rc.resolution, rc.tol) == (120, 1e-7)
        rc = self.run_config(monkeypatch, ["--config", cfg, "--resolution", "90", "--tol", "1e-8"])
        assert (rc.resolution, rc.tol) == (90, 1e-8)
