"""Each benchmark check accepts a real program output and rejects it once
corrupted: a witness endpoint moved by 1e-3, a swapped pair of ranked rows,
a count off by one.  Sizes are small so the file runs in a few seconds."""

import dataclasses
import json
import random

import pytest

import checks
from intervalorders import build_battery, check_pair, midpoint_order_coincidence, oracle_search
from intervalorders.cli import main as cli_main
from run import PAIR_ORDER, PROJECTION_ORDER

CASES = {c.label: c for c in build_battery()}


def moved(pair, delta=1e-3):
    (u_lo, u_hi), x = pair
    return ((u_lo + delta, u_hi) if u_lo + delta <= u_hi else (u_lo - delta, u_hi)), x


@pytest.mark.parametrize("label", [
    "pair-mean(x^2) vs pair-mean(x^2)",
    "geometric(w=0.3) vs geometric(w=0.7)",
    "Lukasiewicz t-norm vs probabilistic sum",
    "root-power(2, w=0.5) vs exponential(1.5, w=0.5)",
])
def test_verdict_witness_check(label):
    case = CASES[label]
    verdict = check_pair(case.a, case.b)
    pair = (verdict.witness.u.as_tuple(), verdict.witness.x.as_tuple())
    outcomes = {"ab": verdict.outcome.value, "ba": check_pair(case.b, case.a).outcome.value}
    assert checks.verdict_errors(label, case.expected.value, outcomes,
                                 {"ab": pair, "ba": None}) == []
    assert checks.verdict_errors(label, case.expected.value, outcomes,
                                 {"ab": moved(pair), "ba": None})


def test_verdict_check_rejects_outcome_and_orientation_faults():
    label = "pair-mean(x^2) vs pair-mean(sqrt)"
    ok = {"ab": "admissible", "ba": "admissible"}
    none = {"ab": None, "ba": None}
    assert checks.verdict_errors(label, "admissible", ok, none) == []
    assert checks.verdict_errors(label, "not_admissible", ok, none)
    assert checks.verdict_errors(label, "admissible",
                                 {"ab": "admissible", "ba": "unknown"}, none)


@pytest.mark.parametrize("label", [
    "logit-mean(w=0.2) vs root-power(-1, w=0.7)",
    "product t-norm vs bounded sum",
])
def test_oracle_check(label):
    case = CASES[label]
    found = oracle_search(case.a, case.b, resolution=50)
    pair = tuple(z.as_tuple() for z in found)
    assert checks.oracle_errors(label, "not_admissible", pair) == []
    assert checks.oracle_errors(label, "not_admissible", moved(pair))
    assert checks.oracle_errors(label, "not_admissible", None)
    assert checks.oracle_errors(label, "admissible", pair)


def test_battery_split_check():
    expected = [c.expected.value for c in CASES.values()]
    assert checks.battery_split_errors(expected) == []
    assert checks.battery_split_errors(expected[1:])


def write_intervals(path, quantum, n=300, seed=7):
    rng = random.Random(seed)
    with open(path, "w") as fh:
        for _ in range(n):
            if quantum:
                i, j = sorted((rng.randint(0, quantum), rng.randint(0, quantum)))
                fh.write(f"{i / quantum!r},{j / quantum!r}\n")
            else:
                lo, hi = sorted((rng.random(), rng.random()))
                fh.write(f"{lo!r},{hi!r}\n")


@pytest.mark.parametrize("quantum", [None, 100])
@pytest.mark.parametrize("order, key_fn", [
    (PAIR_ORDER, checks.pair_order_keys),
    (PROJECTION_ORDER, checks.projection_keys),
])
def test_rank_check_rejects_swapped_rows(tmp_path, quantum, order, key_fn):
    data, cfg, out = tmp_path / "in.csv", tmp_path / "order.json", tmp_path / "out.csv"
    write_intervals(data, quantum)
    cfg.write_text(json.dumps({"order": order}))
    assert cli_main(["rank", "--config", str(cfg), "--input", str(data),
                     "--output", str(out)]) == 0
    items = checks.read_pairs(data)
    expected = checks.expected_ranking(key_fn(items, quantum))
    assert checks.ranked_csv_errors(out, items, expected) == []

    lines = out.read_text().splitlines()
    k = next(k for k in range(1, len(lines) - 1)
             if lines[k].split(",")[1:] != lines[k + 1].split(",")[1:])
    lines[k], lines[k + 1] = lines[k + 1], lines[k]
    out.write_text("\n".join(lines) + "\n")
    assert checks.ranked_csv_errors(out, items, expected)


def test_count_inversions_matches_pairwise_count():
    rng = random.Random(3)
    seq = [rng.randint(0, 40) for _ in range(200)]
    brute = sum(seq[k] > seq[m] for k in range(len(seq)) for m in range(k + 1, len(seq)))
    assert checks.count_inversions(seq) == brute


def test_coincide_check_rejects_corrupted_reports(tmp_path):
    cfg, out = tmp_path / "coincide.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(
        {"orders": [PAIR_ORDER, {"kind": "alpha_beta", "alpha": 0.7, "beta": 1.0}]}))
    assert cli_main(["coincide", "--config", str(cfg), "--resolution", "50",
                     "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    count = checks.kendall_discordant(50)
    assert checks.coincide_report_errors(report, 50, count) == []

    off_by_one = dict(report, disagreement_count=report["disagreement_count"] + 1)
    assert checks.coincide_report_errors(off_by_one, 50, count)
    w = report["witness"]
    flipped = dict(report, witness=dict(w, direction_in_order_1=w["direction_in_order_2"]))
    assert checks.coincide_report_errors(flipped, 50, count)
    shifted = dict(report, alpha_thresholds=[report["alpha_thresholds"][0] + 1e-6])
    assert checks.coincide_report_errors(shifted, 50, count)
    agreeing = dict(report, witness=dict(w, x=w["u"]))
    assert checks.coincide_report_errors(agreeing, 50, count)


def test_midpoint_check():
    square = CASES["pair-mean(x^2) vs pair-mean(sqrt)"].a
    rep = midpoint_order_coincidence(square, resolution=50)
    assert checks.midpoint_errors(rep.coincide, rep.certainty, rep.disagreement_count) == []
    bad = dataclasses.replace(rep, coincide=False, certainty="grid", disagreement_count=1)
    assert checks.midpoint_errors(bad.coincide, bad.certainty, bad.disagreement_count)
