"""A verdict battery: aggregation-function pairs with known admissibility.

Each case pairs two aggregation functions with the expected verdict for its
parameter regime, sampling every regime at several parameter points.  The
battery drives the command-line report and the acceptance suite, which also
cross-checks every verdict against the brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .admissibility import Outcome, Verdict, check_pair
from .aggregators import (
    AggregationFunction,
    exponential_mean,
    geometric_mean,
    k_mean,
    logit_mean,
    root_power_mean,
    schur_pair_mean,
    tconorm,
    tnorm,
)
from .generators import (
    identity,
    negated_log,
    negated_log_complement,
    one_minus,
    power,
)

ADM = Outcome.ADMISSIBLE
NOT = Outcome.NOT_ADMISSIBLE


@dataclass(frozen=True)
class BatteryCase:
    label: str
    region: str
    a: AggregationFunction
    b: AggregationFunction
    expected: Outcome


@dataclass(frozen=True)
class BatteryRow:
    case: BatteryCase
    verdict: Verdict

    @property
    def agrees(self) -> bool:
        return self.verdict.outcome is self.case.expected


def _rpm_pairs() -> list[BatteryCase]:
    cases = []

    def add(region, a_exp, b_exp, w1, w2, expected):
        cases.append(BatteryCase(
            label=f"root-power({a_exp:g}, w={w1:g}) vs root-power({b_exp:g}, w={w2:g})",
            region=region,
            a=root_power_mean(a_exp, w1),
            b=root_power_mean(b_exp, w2),
            expected=expected,
        ))

    for a_exp, b_exp, w1, w2 in [(-1, -2, 0.3, 0.7), (-0.5, -3, 0.5, 0.5), (-2, -1, 0.8, 0.2)]:
        add("root-power both exponents negative", a_exp, b_exp, w1, w2, NOT)
    for a_exp, b_exp, w in [(2, 0.5, 0.5), (-1, 1, 0.3), (1, 3, 0.7)]:
        add("root-power equal weights, one positive exponent", a_exp, b_exp, w, w, ADM)
    for a_exp, b_exp, w1, w2 in [(-1, 2, 0.2, 0.8), (-2, 1, 0.3, 0.6), (-0.5, 0.5, 0.1, 0.9)]:
        add("root-power w1<w2, exponents straddle zero", a_exp, b_exp, w1, w2, ADM)
    for a_exp, b_exp, w1, w2 in [(1, 2, 0.2, 0.5), (0.5, 0.5, 0.3, 0.7), (2, 3, 0.4, 0.9)]:
        add("root-power w1<w2, positive ordered exponents", a_exp, b_exp, w1, w2, ADM)
    for a_exp, b_exp, w1, w2 in [(2, -1, 0.8, 0.2), (1, -2, 0.6, 0.3), (0.5, -0.5, 0.9, 0.1)]:
        add("root-power w1>w2, exponents straddle zero", a_exp, b_exp, w1, w2, ADM)
    for a_exp, b_exp, w1, w2 in [(2, 1, 0.5, 0.2), (3, 0.5, 0.7, 0.4), (3, 3, 0.9, 0.4)]:
        add("root-power w1>w2, positive ordered exponents", a_exp, b_exp, w1, w2, ADM)
    return cases


def _exp_pairs() -> list[BatteryCase]:
    cases = []

    def add(region, a_rate, b_rate, w1, w2, expected):
        cases.append(BatteryCase(
            label=f"exponential({a_rate:g}, w={w1:g}) vs exponential({b_rate:g}, w={w2:g})",
            region=region,
            a=exponential_mean(a_rate, w1),
            b=exponential_mean(b_rate, w2),
            expected=expected,
        ))

    for a_rate, b_rate, w in [(1, 2, 0.5), (-1, 1, 0.3), (-2, -1, 0.6)]:
        add("exponential equal weights, distinct rates", a_rate, b_rate, w, w, ADM)
    for a_rate, b_rate, w1, w2 in [(1, 1, 0.2, 0.7), (-1, 2, 0.3, 0.8), (0.5, 1, 0.4, 0.6)]:
        add("exponential w1<w2, rates ordered upward", a_rate, b_rate, w1, w2, ADM)
    for a_rate, b_rate, w1, w2 in [(2, 1, 0.7, 0.2), (1, -1, 0.8, 0.3), (-1, -1, 0.6, 0.4)]:
        add("exponential w1>w2, rates ordered downward", a_rate, b_rate, w1, w2, ADM)
    return cases


def _self_excluded_pairs() -> list[BatteryCase]:
    cases = []
    for w1, w2 in [(0.3, 0.7), (0.5, 0.5), (0.8, 0.2)]:
        cases.append(BatteryCase(
            label=f"geometric(w={w1:g}) vs geometric(w={w2:g})",
            region="geometric self-pair",
            a=geometric_mean(w1), b=geometric_mean(w2), expected=NOT,
        ))
        cases.append(BatteryCase(
            label=f"logit-mean(w={w1:g}) vs logit-mean(w={w2:g})",
            region="logit-mean self-pair",
            a=logit_mean(w1), b=logit_mean(w2), expected=NOT,
        ))
        cases.append(BatteryCase(
            label=f"logit-mean(w={w1:g}) vs geometric(w={w2:g})",
            region="logit-mean vs geometric",
            a=logit_mean(w1), b=geometric_mean(w2), expected=NOT,
        ))
    return cases


def _geometric_exponential() -> list[BatteryCase]:
    cases = []
    for rate in (-1.0, -0.5, 1.0, 2.0):
        cases.append(BatteryCase(
            label=f"geometric(w=0.4) vs exponential({rate:g}, w=0.4)",
            region="geometric vs exponential, equal weights, rate >= -1",
            a=geometric_mean(0.4), b=exponential_mean(rate, 0.4), expected=ADM,
        ))
    for rate in (-1.5, -2.0, -3.0):
        cases.append(BatteryCase(
            label=f"geometric(w=0.4) vs exponential({rate:g}, w=0.4)",
            region="geometric vs exponential, equal weights, rate < -1",
            a=geometric_mean(0.4), b=exponential_mean(rate, 0.4), expected=NOT,
        ))
    for rate in (-1.0, 0.5, 2.0):
        cases.append(BatteryCase(
            label=f"geometric(w=0.2) vs exponential({rate:g}, w=0.7)",
            region="geometric vs exponential, w1<w2, rate >= -1",
            a=geometric_mean(0.2), b=exponential_mean(rate, 0.7), expected=ADM,
        ))
    return cases


def _logit_combinations() -> list[BatteryCase]:
    cases = []
    for rate in (-1.0, 1.0, 2.0):
        cases.append(BatteryCase(
            label=f"logit-mean(w=0.5) vs exponential({rate:g}, w=0.5)",
            region="logit-mean vs exponential, equal weights",
            a=logit_mean(0.5), b=exponential_mean(rate, 0.5), expected=NOT,
        ))
    for exp_ in (-1.0, 0.5, 2.0):
        cases.append(BatteryCase(
            label=f"logit-mean(w=0.5) vs root-power({exp_:g}, w=0.5)",
            region="logit-mean vs root-power, equal weights",
            a=logit_mean(0.5), b=root_power_mean(exp_, 0.5), expected=NOT,
        ))
    for exp_, w1, w2 in [(-1.0, 0.2, 0.7), (-2.0, 0.6, 0.3), (-0.5, 0.4, 0.8)]:
        cases.append(BatteryCase(
            label=f"logit-mean(w={w1:g}) vs root-power({exp_:g}, w={w2:g})",
            region="logit-mean vs negative root-power, distinct weights",
            a=logit_mean(w1), b=root_power_mean(exp_, w2), expected=NOT,
        ))
    return cases


def _rpm_geometric() -> list[BatteryCase]:
    cases = []
    for exp_, w1, w2 in [(1.0, 0.5, 0.5), (2.0, 0.7, 0.3), (0.5, 0.6, 0.6), (3.0, 0.9, 0.1)]:
        cases.append(BatteryCase(
            label=f"root-power({exp_:g}, w={w1:g}) vs geometric(w={w2:g})",
            region="root-power vs geometric, positive exponent, w1>=w2",
            a=root_power_mean(exp_, w1), b=geometric_mean(w2), expected=ADM,
        ))
    for exp_, w1, w2 in [(-1.0, 0.3, 0.6), (-2.0, 0.5, 0.5), (-0.5, 0.7, 0.2)]:
        cases.append(BatteryCase(
            label=f"root-power({exp_:g}, w={w1:g}) vs geometric(w={w2:g})",
            region="root-power vs geometric, negative exponent",
            a=root_power_mean(exp_, w1), b=geometric_mean(w2), expected=NOT,
        ))
    return cases


def _rpm_exponential() -> list[BatteryCase]:
    cases = []
    adm_eq = [(0.5, 2.0), (-1.0, 1.0), (0.9, 0.5), (2.0, 0.5), (3.0, 1.0), (1.5, 0.2)]
    not_eq = [(2.0, 1.5), (1.5, 1.0), (3.0, 2.5), (0.5, -0.8), (-1.0, -2.5), (0.9, -0.2)]
    for exp_, rate in adm_eq:
        cases.append(BatteryCase(
            label=f"root-power({exp_:g}, w=0.5) vs exponential({rate:g}, w=0.5)",
            region="root-power vs exponential, equal weights, shape region",
            a=root_power_mean(exp_, 0.5), b=exponential_mean(rate, 0.5), expected=ADM,
        ))
    for exp_, rate in not_eq:
        cases.append(BatteryCase(
            label=f"root-power({exp_:g}, w=0.5) vs exponential({rate:g}, w=0.5)",
            region="root-power vs exponential, equal weights, mixed region",
            a=root_power_mean(exp_, 0.5), b=exponential_mean(rate, 0.5), expected=NOT,
        ))
    for exp_, rate in [(1.0, 0.5), (0.5, -0.5), (-1.0, 1.0)]:
        cases.append(BatteryCase(
            label=f"root-power({exp_:g}, w=0.3) vs exponential({rate:g}, w=0.6)",
            region="root-power vs exponential, w1<w2",
            a=root_power_mean(exp_, 0.3), b=exponential_mean(rate, 0.6), expected=ADM,
        ))
    for exp_, rate in [(2.0, 0.5), (1.0, -0.5), (3.0, 1.0)]:
        cases.append(BatteryCase(
            label=f"root-power({exp_:g}, w=0.8) vs exponential({rate:g}, w=0.4)",
            region="root-power vs exponential, w1>w2",
            a=root_power_mean(exp_, 0.8), b=exponential_mean(rate, 0.4), expected=ADM,
        ))
    return cases


def _projection_pairs() -> list[BatteryCase]:
    specs = [
        ("projection(0.3) vs projection(0.7)", 0.3, 0.7, ADM),
        ("projection(0) vs projection(1) (lexicographic)", 0.0, 1.0, ADM),
        ("projection(0) vs projection(0.5)", 0.0, 0.5, ADM),
        ("projection(0.5) vs projection(0.5)", 0.5, 0.5, NOT),
    ]
    return [
        BatteryCase(label=lbl, region="endpoint projections",
                    a=k_mean(w1), b=k_mean(w2), expected=exp)
        for lbl, w1, w2, exp in specs
    ]


def _archimedean_pairs() -> list[BatteryCase]:
    product = tnorm(negated_log())
    lukasiewicz = tnorm(one_minus())
    prob_sum = tconorm(negated_log_complement())
    bounded_sum = tconorm(identity())
    return [
        BatteryCase("product t-norm vs probabilistic sum", "strict Archimedean pair",
                    product, prob_sum, ADM),
        BatteryCase("Lukasiewicz t-norm vs probabilistic sum", "nilpotent t-norm",
                    lukasiewicz, prob_sum, NOT),
        BatteryCase("Lukasiewicz t-norm vs bounded sum", "both nilpotent",
                    lukasiewicz, bounded_sum, NOT),
        BatteryCase("product t-norm vs bounded sum", "nilpotent t-conorm",
                    product, bounded_sum, NOT),
        BatteryCase("product t-norm vs product t-norm", "two t-norms",
                    product, tnorm(negated_log()), NOT),
        BatteryCase("probabilistic sum vs bounded sum", "two t-conorms",
                    prob_sum, bounded_sum, NOT),
    ]


def _pair_mean_cases() -> list[BatteryCase]:
    square = schur_pair_mean(power(2.0))
    sqrt = schur_pair_mean(power(0.5))
    lin = schur_pair_mean(identity())
    return [
        BatteryCase("pair-mean(x^2) vs pair-mean(sqrt)", "pairwise means, concave composite",
                    square, sqrt, ADM),
        BatteryCase("pair-mean(id) vs pair-mean(x^2)", "pairwise means, convex composite",
                    lin, schur_pair_mean(power(2.0)), ADM),
        BatteryCase("pair-mean(sqrt) vs pair-mean(x^2)", "pairwise means, convex composite",
                    sqrt, schur_pair_mean(power(2.0)), ADM),
        BatteryCase("pair-mean(x^2) vs pair-mean(x^2)", "identical pairwise means",
                    square, schur_pair_mean(power(2.0)), NOT),
    ]


def build_battery() -> list[BatteryCase]:
    cases: list[BatteryCase] = []
    cases.extend(_rpm_pairs())
    cases.extend(_exp_pairs())
    cases.extend(_self_excluded_pairs())
    cases.extend(_geometric_exponential())
    cases.extend(_logit_combinations())
    cases.extend(_rpm_geometric())
    cases.extend(_rpm_exponential())
    cases.extend(_projection_pairs())
    cases.extend(_archimedean_pairs())
    cases.extend(_pair_mean_cases())
    return cases


def run_battery(*, resolution: int = 200) -> list[BatteryRow]:
    """Every battery case's verdict, with the oracle at ``resolution`` for
    pairs no rule decides."""
    return [BatteryRow(case, check_pair(case.a, case.b, resolution=resolution))
            for case in build_battery()]


def format_battery_table(rows: list[BatteryRow]) -> str:
    headers = ("case", "expected", "verdict", "rule", "agrees")
    table = [headers]
    for row in rows:
        table.append((
            row.case.label,
            row.case.expected.value,
            row.verdict.outcome.value,
            row.verdict.rule,
            "yes" if row.agrees else "NO",
        ))
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = []
    for k, r in enumerate(table):
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
