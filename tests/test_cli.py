import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from intervalorders import Outcome, build_battery, cli
from intervalorders.aggregators import AggregationError, aggregator_from_config
from intervalorders.cli import RunConfig, main
from intervalorders.coincidence import orders_coincide
from intervalorders.generators import GeneratorError, generator_from_config
from intervalorders.orders import OrderSpecError, order_from_config
from order_reference import reference_disagreements_csv

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


def src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


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

    def test_undecided_pair_prints_the_oracle_note(self, tmp_path, capsys):
        # demo 02's band-edge pair, which no rule decides
        cfg = write_json(tmp_path / "cfg.json", {"pair": {
            "a": {"family": "k", "w": 0.2689414213699951},
            "b": {"family": "quasi_linear", "generator": {"kind": "exponential", "gamma": -1.0},
                  "weight": 0.5}}})
        assert main(["check-pair", "--config", cfg, "--resolution", "120"]) == 0
        assert capsys.readouterr().out == json.dumps({
            "note": "no collision found at resolution 120 (evidence, not proof)",
            "outcome": "unknown", "rule": "oracle", "witness": None}, indent=2) + "\n"

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

    def test_stdout_matches_output_file(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"order": {"kind": "pair", **PAIR_CONFIG["pair"]}})
        data = tmp_path / "items.csv"
        data.write_text('lo,hi\n0.2,0.9\n\n-0.0,1.0000000000000002\n"0.1", 2e-1\n-1e-16,0.5\n')
        out = tmp_path / "ranked.csv"
        assert main(["rank", "--config", cfg, "--input", str(data), "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["rank", "--config", cfg, "--input", str(data)]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes() == (
            b"index,lo,hi\n2,0.1,0.2\n3,0.0,0.5\n0,0.2,0.9\n1,-0.0,1.0\n")


    def test_json_with_byte_order_mark(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json",
                         {"order": {"kind": "alpha_beta", "alpha": 0.5, "beta": 1.0}})
        data = tmp_path / "items.json"
        data.write_bytes(b"\xef\xbb\xbf[[0.3, 0.4], [0.1, 0.2]]")
        assert main(["rank", "--config", cfg, "--input", str(data)]) == 0
        assert capsys.readouterr().out == "index,lo,hi\n1,0.1,0.2\n0,0.3,0.4\n"

    def test_json_integer_too_large_for_a_float(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json",
                         {"order": {"kind": "alpha_beta", "alpha": 0.5, "beta": 1.0}})
        data = tmp_path / "items.json"
        data.write_text(f"[[0.1, 1{'0' * 400}]]")
        assert main(["rank", "--config", cfg, "--input", str(data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"i/o error: {data}: entry 0: int too large to convert to float\n")


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

    def test_witness_rejected_by_tol_prints_its_residual(self, tmp_path, capsys):
        # the oracle's witness has residual_a 1.67e-16, above tol = 1e-16
        cfg = write_json(tmp_path / "cfg.json", {"pair": {
            "a": {"family": "quasi_linear", "generator": {"kind": "logit"}, "weight": 0.5},
            "b": {"family": "quasi_linear", "generator": {"kind": "exponential", "gamma": -1.0},
                  "weight": 0.5}}})
        assert main(["find-counterexample", "--config", cfg, "--resolution", "60",
                     "--tol", "1e-16"]) == 0
        assert capsys.readouterr().out == json.dumps({
            "note": "collision at resolution 60 rejected: residual 1.6653345369377348e-16 "
                    "above tol 1e-16 (evidence, not proof)",
            "witness": None}, indent=2) + "\n"


class TestParser:
    ARGVS = [[], ["--help"], ["rank", "--help"], ["battery", "--help"], ["bogus"],
             ["rank", "--resolution", "x"], ["check-pair", "--cross-check"]]

    @staticmethod
    def exit_text(parser, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    def test_main_builds_its_parser_once(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", PAIR_CONFIG)
        built = cli.build_parser()
        outs = []
        for _ in range(2):
            assert main(["check-pair", "--config", cfg]) == 0
            outs.append(capsys.readouterr().out)
        assert cli.build_parser() is built
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_a_reused_parser_prints_what_a_fresh_one_does(self, argv, capsys):
        fresh = self.exit_text(cli.build_parser.__wrapped__(), argv, capsys)
        for _ in range(2):
            assert self.exit_text(cli.build_parser(), argv, capsys) == fresh
        with pytest.raises(SystemExit):
            main(argv)
        assert capsys.readouterr() == fresh[1:]


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
        # every disagreement fits the CSV: nothing to note
        assert capsys.readouterr().err == ""

    def test_truncated_csv_is_noted_on_stderr(self, tmp_path, capsys):
        dump = tmp_path / "disagreements.csv"
        orders = [{"kind": "alpha_beta", "alpha": 0.0, "beta": 1.0},
                  {"kind": "alpha_beta", "alpha": 1.0, "beta": 0.0}]
        plain = write_json(tmp_path / "plain.json", {"orders": orders})
        assert main(["coincide", "--config", plain, "--resolution", "60"]) == 0
        expected = capsys.readouterr().out
        cfg = write_json(tmp_path / "cfg.json",
                         {"orders": orders, "disagreements_csv": str(dump)})
        assert main(["coincide", "--config", cfg, "--resolution", "60"]) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        count = json.loads(captured.out)["disagreement_count"]
        assert count == 557845
        assert len(dump.read_text().splitlines()) == 1 + 100000
        assert captured.err == f"note: {dump} holds the first 100000 of {count} disagreements\n"


def alpha_beta(alpha: float, beta: float) -> dict:
    return {"kind": "alpha_beta", "alpha": alpha, "beta": beta}


SQUARE_SQRT_ORDER = {
    "kind": "pair", "verify": False,
    "a": {"family": "schur_pair", "f": {"kind": "power", "gamma": 2.0}},
    "b": {"family": "schur_pair", "f": {"kind": "power", "gamma": 0.5}},
}
# the order pairs of test_coincidence.COINCIDE_PAIRS as config specs
COINCIDE_SPECS = {
    "square-sqrt-vs-0.7": [SQUARE_SQRT_ORDER, alpha_beta(0.7, 1.0)],
    "lexicographic-vs-antilexicographic": [alpha_beta(0.0, 1.0), alpha_beta(1.0, 0.0)],
    "midpoint-twice-vs-0.5": [
        {"kind": "pair", "verify": False,
         "a": {"family": "k", "w": 0.5}, "b": {"family": "k", "w": 0.5}},
        alpha_beta(0.5, 1.0)],
    "reduced-projections": [alpha_beta(0.5, 1.0), alpha_beta(0.5, 0.9)],
}
BYTES_CASES = [(pair, r) for pair in COINCIDE_SPECS for r in (60, 101)] + [
    ("square-sqrt-vs-0.7", 140)]


def assert_same_text(got: str, want: str) -> None:
    """Equal texts, else a failure that names the first differing line
    (pytest's own diff of two 100,000-row files would take minutes)."""
    if got != want:
        a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
        k = next((k for k, pair in enumerate(zip(a, b)) if pair[0] != pair[1]),
                 min(len(a), len(b)))
        pytest.fail(f"line {k + 1}: got {a[k:k + 1]!r}, want {b[k:k + 1]!r} "
                    f"({len(a)} and {len(b)} lines)")


class TestCoincideBytesMatchReferenceWriter:
    """stdout, --output, stderr and the disagreements CSV of CLI coincide are
    the bytes of orders_coincide(..., collect_all=True)'s report, its CSV
    written row by row from ``disagreements`` by the reference writer."""

    @pytest.mark.parametrize("pair,resolution", BYTES_CASES,
                             ids=[f"{p}-{r}" for p, r in BYTES_CASES])
    def test_bytes_equal(self, tmp_path, capsys, pair, resolution):
        specs = COINCIDE_SPECS[pair]
        dump = tmp_path / "dump.csv"
        rep = orders_coincide(*(order_from_config(s) for s in specs),
                              resolution=resolution, collect_all=True)
        report = json.dumps(rep.to_json_dict(), sort_keys=True, indent=2) + "\n"
        rows = io.StringIO()
        reference_disagreements_csv(rows, rep)
        note = ("" if len(rep.disagreements) == rep.disagreement_count else
                f"note: {dump} holds the first {len(rep.disagreements)} "
                f"of {rep.disagreement_count} disagreements\n")
        cfg = write_json(tmp_path / "cfg.json", {"orders": specs, "disagreements_csv": str(dump)})
        argv = ["coincide", "--config", cfg, "--resolution", str(resolution)]

        assert main(argv) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (report, note)
        assert_same_text(dump.read_text(), rows.getvalue())
        dump.unlink()
        out = tmp_path / "report.json"
        assert main(argv + ["--output", str(out)]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", note)
        assert out.read_text() == report
        assert_same_text(dump.read_text(), rows.getvalue())


class TestCoincideDumpMemory:
    def test_peak_stays_below_20_mib(self, tmp_path):
        # one DisagreementWitness per row peaked at 55 MiB here
        dump = tmp_path / "dump.csv"
        cfg = write_json(tmp_path / "cfg.json", {
            "orders": COINCIDE_SPECS["square-sqrt-vs-0.7"], "disagreements_csv": str(dump)})
        tracemalloc.start()
        try:
            assert main(["coincide", "--config", cfg, "--resolution", "140"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(dump.read_text().splitlines()) == 1 + 100000
        assert peak < 20 * 2**20


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
        run = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, cfg, str(tmp_path / "out.json")],
                             env=src_env(), capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr


class TestBattery:
    def test_table_runs_and_agrees(self, tmp_path):
        out = tmp_path / "battery.txt"
        assert main(["battery", "--output", str(out)]) == 0
        text = out.read_text()
        assert "case" in text.splitlines()[0]
        assert "NO" not in text  # every verdict column shows agreement

    def test_cross_check_finds_a_collision_on_every_excluded_case(self, capsys):
        # one line per battery case, in battery order: the oracle at R=100
        # finds a collision on the 40 NOT_ADMISSIBLE cases and on no other
        assert main(["battery", "--cross-check", "--resolution", "100"]) == 0
        table, section = capsys.readouterr().out.split("\n\noracle cross-check:\n")
        assert "NO" not in table
        cases = build_battery()
        expected = [f"  {c.label}: {'collision' if c.expected is Outcome.NOT_ADMISSIBLE else 'none'}"
                    for c in cases]
        assert section.splitlines() == expected
        assert len(expected) == 94
        assert sum(c.expected is Outcome.NOT_ADMISSIBLE for c in cases) == 40


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

    @pytest.mark.parametrize("name,payload,position", [
        ("items.csv", b"0.1,0.2\n\xff\n", 8),
        ("items.json", b"[[0.1, 0.2]]\xff", 12),
    ])
    def test_input_not_utf8_is_io_error_naming_the_file(self, tmp_path, capsys,
                                                         name, payload, position):
        cfg = write_json(tmp_path / "cfg.json",
                         {"order": {"kind": "alpha_beta", "alpha": 0.5, "beta": 1.0}})
        data = tmp_path / name
        data.write_bytes(payload)
        assert main(["rank", "--config", cfg, "--input", str(data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"i/o error: {data}: 'utf-8' codec can't decode byte 0xff "
                                f"in position {position}: invalid start byte\n")

    def test_field_over_the_csv_size_limit_is_io_error_naming_the_row(self, tmp_path, capsys):
        # the header sends the file to the row reader, whose field size
        # limit is 131072 characters
        cfg = write_json(tmp_path / "cfg.json",
                         {"order": {"kind": "alpha_beta", "alpha": 0.5, "beta": 1.0}})
        data = tmp_path / "items.csv"
        data.write_text("lo,hi\n0.1,0.2\n" + "0" * 200_000 + ",0.3\n")
        assert main(["rank", "--config", cfg, "--input", str(data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"i/o error: {data}: row 3: field larger than field limit (131072)\n")

    def test_config_not_utf8_is_config_error_naming_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"pair": "\xff"}')
        assert main(["check-pair", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {cfg}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    def test_missing_order_spec_is_config_error(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {})
        data = tmp_path / "items.csv"
        data.write_text("0.1,0.2\n")
        assert main(["rank", "--config", cfg, "--input", str(data)]) == 1


def pair_text(a: str, extra: str = "") -> str:
    """check-pair config text with A's raw JSON spec ``a`` and B = K_0.7."""
    return '{"pair": {"a": %s, "b": {"family": "k", "w": 0.7}}%s}' % (a, extra)


K_03 = '{"family": "k", "w": 0.3}'
# command, config text and whether it needs --input; one value of the wrong
# type, or out of range, in each
BAD_CONFIGS = {
    "resolution-null": ("check-pair", pair_text(K_03, ', "resolution": null'), False),
    "resolution-1e400": ("check-pair", pair_text(K_03, ', "resolution": 1e400'), False),
    "resolution-100.7": ("check-pair", pair_text(K_03, ', "resolution": 100.7'), False),
    "tol-list": ("check-pair", pair_text(K_03, ', "tol": [1]'), False),
    "k-w-null": ("check-pair", pair_text('{"family": "k", "w": null}'), False),
    "k-w-huge-integer": ("check-pair", pair_text('{"family": "k", "w": 1%s}' % ("0" * 400)), False),
    "weight-null": ("check-pair", pair_text(
        '{"family": "quasi_linear", "generator": {"kind": "logit"}, "weight": null}'), False),
    "gamma-list": ("check-pair", pair_text(
        '{"family": "schur_pair", "f": {"kind": "power", "gamma": [2]}}'), False),
    "exponential-rate-overflow": ("check-pair", pair_text(
        '{"family": "quasi_linear", "generator": {"kind": "exponential", "gamma": 1000}, '
        '"weight": 0.5}'), False),
    "kind-list": ("check-pair", pair_text('{"family": "tnorm", "generator": {"kind": []}}'), False),
    "input-integer": (
        "rank", '{"order": {"kind": "alpha_beta", "alpha": 0.5, "beta": 1.0}, "input": 3}', False),
    "alpha-null": ("rank", '{"order": {"kind": "alpha_beta", "alpha": null, "beta": 1.0}}', True),
    "verify-string": ("rank", '{"order": {"kind": "pair", "a": %s, "b": {"family": "k", "w": 0.7}, '
                              '"verify": "no"}}' % K_03, True),
}

# binds fd 3 to a file, runs main and reports whether fd 3 is still open
FD3_SCRIPT = """
import os, sys
from intervalorders.cli import main
os.dup2(os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC), 3)
code = main(sys.argv[2:])
os.fstat(3)
sys.exit(code)
"""


class TestBadConfigValues:
    """A config value of the wrong type, or out of range, is one configuration
    error line and exit 1: no traceback, no silent truncation, no numbered
    descriptor."""

    @staticmethod
    def assert_one_config_error(err: str) -> None:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error: "), err

    @pytest.mark.parametrize("case", list(BAD_CONFIGS))
    def test_exits_1_with_one_line(self, tmp_path, capsys, case):
        command, text, needs_input = BAD_CONFIGS[case]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        argv = [command, "--config", str(cfg)]
        if needs_input:
            data = tmp_path / "items.csv"
            data.write_text("0.1,0.2\n")
            argv += ["--input", str(data)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        self.assert_one_config_error(captured.err)

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_tolerance_flag_must_be_finite_and_positive(self, tmp_path, capsys, tol):
        cfg = write_json(tmp_path / "cfg.json", PAIR_CONFIG)
        assert main(["check-pair", "--config", cfg, "--tol", tol]) == 1
        self.assert_one_config_error(capsys.readouterr().err)

    @pytest.mark.parametrize("command, key",
                             [("rank", "output"), ("coincide", "disagreements_csv")])
    def test_integer_path_writes_no_descriptor(self, tmp_path, command, key):
        payload = ({"order": alpha_beta(0.5, 1.0)} if command == "rank"
                   else {"orders": COINCIDE_SPECS["lexicographic-vs-antilexicographic"]})
        cfg = write_json(tmp_path / "cfg.json", {**payload, key: 3})
        data = tmp_path / "items.csv"
        data.write_text("0.1,0.2\n0.3,0.4\n")
        fd3 = tmp_path / "fd3"
        argv = [command, "--config", cfg, "--input", str(data), "--resolution", "50"]
        run = subprocess.run([sys.executable, "-c", FD3_SCRIPT, str(fd3), *argv],
                             env=src_env(), capture_output=True, text=True, timeout=120)
        assert run.returncode == 1
        self.assert_one_config_error(run.stderr)
        assert fd3.read_bytes() == b""

    def test_readers_raise_their_own_error(self):
        with pytest.raises(AggregationError, match="'w' must be a number"):
            aggregator_from_config({"family": "k", "w": None})
        with pytest.raises(GeneratorError, match="'gamma' must be a number"):
            generator_from_config({"kind": "power", "gamma": [2]})
        with pytest.raises(OrderSpecError, match="'alpha' must be a number"):
            order_from_config({"kind": "alpha_beta", "alpha": None, "beta": 1.0})

    def test_disagreements_are_collected_only_for_a_csv(self, tmp_path, capsys, monkeypatch):
        collected = []

        def recording(*args, **kwargs):
            collected.append(kwargs["collect_all"])
            return orders_coincide(*args, **kwargs)

        monkeypatch.setattr(cli, "orders_coincide", recording)
        dump = tmp_path / "dump.csv"
        for name in ("", None, str(dump)):
            cfg = write_json(tmp_path / "cfg.json", {
                "orders": COINCIDE_SPECS["lexicographic-vs-antilexicographic"],
                "disagreements_csv": name})
            assert main(["coincide", "--config", cfg, "--resolution", "50"]) == 0
        assert collected == [False, False, True]
        assert dump.exists()


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
