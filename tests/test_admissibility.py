import csv
import dataclasses
import math
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intervalorders import (
    AggregationFunction,
    Interval,
    Outcome,
    admissible_for_all_weight_orders,
    build_battery,
    check_pair,
    exponential,
    exponential_mean,
    geometric_mean,
    identity,
    is_conjunctive,
    is_disjunctive,
    k_mean,
    logarithm,
    logit,
    logit_mean,
    make_witness,
    negated_log,
    negated_log_complement,
    nilpotent_witness,
    one_minus,
    oracle_search,
    power,
    quasi_linear_mean,
    root_power_mean,
    rule_k0_k1,
    rule_quasi_equal_weights,
    rule_quasi_unequal_weights,
    rule_tnorm_tconorm,
    schur_pair_mean,
    tconorm,
    tnorm,
)
from intervalorders import admissibility
from intervalorders.admissibility import (
    ORACLE_CONFIRM,
    WITNESS_GAP,
    _candidate_pairs,
    _candidate_slices,
    _root_brackets,
    _saturation_verdict,
    quasi_view,
)
from intervalorders.intervals import interval_grid
from oracle_reference import (
    reference_candidate_pairs,
    reference_oracle_search,
    reference_row_roots,
    reference_tail_roots,
)


def assert_valid_witness(verdict, a, b, tol=1e-9):
    w = verdict.witness
    assert w is not None
    assert abs(a(w.u) - a(w.x)) <= tol
    assert abs(b(w.u) - b(w.x)) <= tol
    assert w.endpoint_gap >= 1e-4


class TestSaturationPredicates:
    def test_conjunctive_members(self):
        assert is_conjunctive(geometric_mean(0.4))
        assert is_conjunctive(logit_mean(0.4))
        assert is_conjunctive(root_power_mean(-2.0, 0.4))
        assert is_conjunctive(tnorm(negated_log()))
        assert is_conjunctive(k_mean(0.0))
        assert not is_conjunctive(k_mean(0.5))
        assert not is_conjunctive(root_power_mean(2.0, 0.4))

    def test_disjunctive_members(self):
        assert is_disjunctive(logit_mean(0.4))
        assert is_disjunctive(tconorm(identity()))
        assert is_disjunctive(k_mean(1.0))
        assert not is_disjunctive(geometric_mean(0.4))


class TestEndpointExclusion:
    """Quasi-arithmetic pairs whose generators both blow up at the same end
    of [0,1] collide on all intervals [0, x] (or [x, 1])."""

    def test_two_log_generators(self):
        a, b = geometric_mean(0.3), geometric_mean(0.7)
        v = check_pair(a, b, use_oracle=False)
        assert v.outcome is Outcome.NOT_ADMISSIBLE
        assert v.rule == "conjunctive-saturation"
        assert_valid_witness(v, a, b)
        # the constructed collisions sit on the zero-anchored edge
        assert v.witness.u.lo == 0.0 and v.witness.x.lo == 0.0

    def test_two_logit_generators(self):
        a, b = logit_mean(0.2), logit_mean(0.8)
        v = check_pair(a, b, use_oracle=False)
        assert v.outcome is Outcome.NOT_ADMISSIBLE
        # logit blows up at both ends; the zero end is tried first
        assert v.rule == "conjunctive-saturation"
        assert_valid_witness(v, a, b)

    def test_no_verdict_when_endpoints_finite(self):
        a = quasi_linear_mean(power(2.0), 0.3)
        b = quasi_linear_mean(exponential(1.0), 0.7)
        assert _saturation_verdict(a, b) is None


class TestEqualWeights:
    def test_root_power_pair_admissible(self):
        v = rule_quasi_equal_weights(power(2.0), power(0.5), 0.5)
        assert v.outcome is Outcome.ADMISSIBLE

    def test_exponential_pair_admissible(self):
        v = rule_quasi_equal_weights(exponential(1.0), exponential(2.0), 0.3)
        assert v.outcome is Outcome.ADMISSIBLE

    def test_logit_vs_exponential_not_admissible_with_witness(self):
        v = rule_quasi_equal_weights(logit(), exponential(1.0), 0.5)
        assert v.outcome is Outcome.NOT_ADMISSIBLE
        assert_valid_witness(v, logit_mean(0.5), exponential_mean(1.0, 0.5))

    def test_identity_pair_collides(self):
        v = rule_quasi_equal_weights(identity(), identity(), 0.5)
        assert v.outcome is Outcome.NOT_ADMISSIBLE
        assert_valid_witness(v, k_mean(0.5), k_mean(0.5))


# Pairs whose composite has parameters next to a root of the registry's N
# = R_g - R_f, with their (outcome, rule, note), the same in both
# orientations:
# - x^(1+1e-10) vs e^x: N = -(x - 1)(x - 1e-10) changes sign inside (0,1),
#   so the composite is not strictly convex;
# - K_1/2 vs the x^(1+1e-13) mean: N = 1e-13 (1 - x) > 0, so the composite
#   is strictly convex and no collision exists;
# - at unequal weights no row of the weight-order table matches the first
#   pair's mixed composite, nor a convex composite with w1 > w2.
NEAR_DEGENERATE_PAIRS = [
    ("power(1+1e-10) vs exponential(1)",
     (quasi_linear_mean(power(1 + 1e-10), 0.5), quasi_linear_mean(exponential(1.0), 0.5)),
     (Outcome.NOT_ADMISSIBLE, "equal-weights-shape",
      "composite certified neither strictly convex nor strictly concave")),
    ("k_mean(0.5) vs power(1+1e-13)",
     (k_mean(0.5), quasi_linear_mean(power(1 + 1e-13), 0.5)),
     (Outcome.ADMISSIBLE, "equal-weights-shape", "")),
    ("power(1+1e-10, w=0.3) vs exponential(1, w=0.7)",
     (quasi_linear_mean(power(1 + 1e-10), 0.3), quasi_linear_mean(exponential(1.0), 0.7)),
     (Outcome.UNKNOWN, "rules", "no criterion matched; oracle disabled")),
    ("k_mean(0.7) vs power(1+1e-13, w=0.3)",
     (k_mean(0.7), quasi_linear_mean(power(1 + 1e-13), 0.3)),
     (Outcome.UNKNOWN, "rules", "no criterion matched; oracle disabled")),
]


class TestNearDegenerateShapes:
    """Verdicts that rest on the exact sign pattern of the registry's N."""

    @pytest.mark.parametrize("a, b, expected", [
        pytest.param(a, b, expected, id=f"{label}{suffix}")
        for label, (p, q), expected in NEAR_DEGENERATE_PAIRS
        for a, b, suffix in ((p, q, ""), (q, p, " reversed"))
    ])
    def test_check_pair(self, a, b, expected):
        v = check_pair(a, b, use_oracle=False)
        assert (v.outcome, v.rule, v.note) == expected
        assert v.witness is None


class TestUnequalWeights:
    def test_root_power_exponents_straddling_zero(self):
        v = rule_quasi_unequal_weights(power(-1.0), power(2.0), 0.2, 0.8)
        assert v.outcome is Outcome.ADMISSIBLE

    def test_root_power_vs_geometric_weight_dominant(self):
        v = rule_quasi_unequal_weights(power(2.0), logarithm(), 0.7, 0.3)
        assert v.outcome is Outcome.ADMISSIBLE

    def test_identity_pair_any_weight_order(self):
        assert rule_quasi_unequal_weights(identity(), identity(), 0.3, 0.7).outcome \
            is Outcome.ADMISSIBLE
        assert rule_quasi_unequal_weights(identity(), identity(), 0.7, 0.3).outcome \
            is Outcome.ADMISSIBLE

    def test_requires_distinct_weights(self):
        with pytest.raises(ValueError):
            rule_quasi_unequal_weights(identity(), identity(), 0.5, 0.5)

    def test_uncharacterized_region_returns_none(self):
        # concave increasing composite (y^0.5 on (1, e)) with w1 < w2 matches
        # no row; its bounded slope ratio keeps the collision scan clear, so
        # the regime stays undecided rather than guessed
        v = rule_quasi_unequal_weights(exponential(1.0), exponential(0.5), 0.2, 0.6)
        assert v is None

    def test_shape_of_generators_without_registry_row_is_labelled_evidence(self):
        # power(2) at w = 0.2 and power(3) at w = 0.5 stripped of their
        # registry kind: the shape comes from the numeric scan, and the
        # verdict's note says so in both orientations
        f, g = (dataclasses.replace(power(e), kind=None, param=None) for e in (2.0, 3.0))
        a, b = quasi_linear_mean(f, 0.2), quasi_linear_mean(g, 0.5)
        for v, shape in ((check_pair(a, b, use_oracle=False), "convex"),
                         (check_pair(b, a, use_oracle=False), "concave")):
            assert (v.outcome, v.rule) == (Outcome.ADMISSIBLE, "weight-order-shape")
            assert v.note == f"composite {shape} on a 2001-sample numeric scan (evidence, not proof)"
        builtin = check_pair(root_power_mean(2.0, 0.2), root_power_mean(3.0, 0.5))
        assert (builtin.rule, builtin.note) == ("weight-order-shape", "")

    def test_no_row_with_located_collision_is_excluded(self):
        # same structure but with a composite whose slope ratio is unbounded:
        # here a genuine collision exists and the scan converts it into a
        # verified exclusion
        v = rule_quasi_unequal_weights(identity(), exponential(3.0), 0.6, 0.3)
        assert v.outcome is Outcome.NOT_ADMISSIBLE
        assert_valid_witness(v, k_mean(0.6), exponential_mean(3.0, 0.3))


class TestEndpointProjectionRule:
    def test_strict_tnorm_fails_flat_second_argument(self):
        v = rule_k0_k1(tnorm(negated_log()), 0.0)
        assert v.outcome is Outcome.NOT_ADMISSIBLE
        w = v.witness
        assert w.u.lo == w.x.lo == 0.0  # B(0, x) = 0 stretch

    def test_midpoint_projection_passes(self):
        v = rule_k0_k1(k_mean(0.5), 1.0)
        assert v.outcome is Outcome.ADMISSIBLE

    def test_pairwise_mean_passes(self):
        v = rule_k0_k1(schur_pair_mean(power(2.0)), 0.0)
        assert v.outcome is Outcome.ADMISSIBLE

    def test_rejects_interior_weight(self):
        with pytest.raises(ValueError):
            rule_k0_k1(k_mean(0.5), 0.3)


class TestArchimedeanRule:
    def test_strict_pair_admissible(self):
        t, s = tnorm(negated_log()), tconorm(negated_log_complement())
        # two strict generators are left to the quasi-linear rules
        assert rule_tnorm_tconorm(t, s) is None
        for a, b in ((t, s), (s, t)):
            v = check_pair(a, b, use_oracle=False)
            assert v.outcome is Outcome.ADMISSIBLE
            assert v.rule == "strict-archimedean-shape"

    def test_nilpotent_tnorm_collides(self):
        t, s = tnorm(one_minus()), tconorm(negated_log_complement())
        v = rule_tnorm_tconorm(t, s)
        assert v.outcome is Outcome.NOT_ADMISSIBLE
        assert_valid_witness(v, t, s, tol=1e-12)

    def test_nilpotent_tconorm_collides(self):
        t, s = tnorm(negated_log()), tconorm(identity())
        v = rule_tnorm_tconorm(t, s)
        assert v.outcome is Outcome.NOT_ADMISSIBLE
        assert_valid_witness(v, t, s, tol=1e-12)


class TestNilpotentWitness:
    def test_lukasiewicz_with_bounded_sum_exact_case(self):
        u, x = nilpotent_witness(one_minus(), identity())
        assert u == Interval(0.25, 0.25)
        assert x == Interval(0.0, 0.5)
        # hand evaluation of both sides
        assert max(0.25 + 0.25 - 1, 0.0) == max(0.0 + 0.5 - 1, 0.0)
        assert min(0.25 + 0.25, 1.0) == min(0.0 + 0.5, 1.0)

    def test_product_with_bounded_sum_mixed_case(self):
        u, x = nilpotent_witness(negated_log(), identity())
        assert u == Interval(0.75, 0.75)
        assert x.hi == 1.0
        assert x.lo == pytest.approx(0.5625, abs=1e-12)  # 0.75^2
        t_af, s_af = tnorm(negated_log()), tconorm(identity())
        assert abs(t_af(u) - t_af(x)) <= 1e-12
        assert abs(s_af(u) - s_af(x)) <= 1e-12

    def test_both_nilpotent_unbalanced_generator(self):
        # s(x) = x^2 bends the sums so the balanced case does not apply
        t, s = one_minus(), power(2.0)
        u, x = nilpotent_witness(t, s)
        assert u != x
        t_af, s_af = tnorm(t), tconorm(s)
        assert abs(t_af(u) - t_af(x)) <= 1e-12
        assert abs(s_af(u) - s_af(x)) <= 1e-12

    def test_rejects_two_strict_generators(self):
        with pytest.raises(ValueError):
            nilpotent_witness(negated_log(), negated_log_complement())


class TestSchurPairRule:
    def test_square_vs_sqrt(self):
        v = check_pair(schur_pair_mean(power(2.0)), schur_pair_mean(power(0.5)), use_oracle=False)
        assert v.outcome is Outcome.ADMISSIBLE
        assert v.rule == "pair-mean-shape"

    def test_identity_vs_square(self):
        v = check_pair(schur_pair_mean(identity()), schur_pair_mean(power(2.0)), use_oracle=False)
        assert v.outcome is Outcome.ADMISSIBLE
        assert v.rule == "pair-mean-shape"

    def test_same_generator_collides(self):
        a, b = schur_pair_mean(power(2.0)), schur_pair_mean(power(2.0))
        v = check_pair(a, b, use_oracle=False)
        assert v.outcome is Outcome.NOT_ADMISSIBLE
        assert v.rule == "pair-mean-collision"
        assert_valid_witness(v, a, b)


class TestCheckPair:
    def test_projection_pair(self):
        v = check_pair(k_mean(0.3), k_mean(0.7))
        assert v.outcome is Outcome.ADMISSIBLE
        assert v.rule == "projection-pair"

    def test_lexicographic_projections(self):
        assert check_pair(k_mean(0.0), k_mean(1.0)).outcome is Outcome.ADMISSIBLE

    def test_geometric_self_pair(self):
        v = check_pair(geometric_mean(0.3), geometric_mean(0.7))
        assert v.outcome is Outcome.NOT_ADMISSIBLE
        assert_valid_witness(v, geometric_mean(0.3), geometric_mean(0.7))

    def test_same_aggregator_twice(self):
        a = root_power_mean(2.0, 0.5)
        v = check_pair(a, root_power_mean(2.0, 0.5))
        assert v.outcome is Outcome.NOT_ADMISSIBLE
        assert_valid_witness(v, a, a)

    def test_swapped_arguments_agree_in_outcome(self):
        pairs = [
            (k_mean(0.3), k_mean(0.7)),
            (geometric_mean(0.3), geometric_mean(0.7)),
            (root_power_mean(2.0, 0.5), root_power_mean(0.5, 0.5)),
            (tnorm(one_minus()), tconorm(identity())),
            (logit_mean(0.5), exponential_mean(1.0, 0.5)),
            (tconorm(negated_log_complement()), tnorm(negated_log())),
            (schur_pair_mean(power(2.0)), k_mean(0.5)),
        ]
        for a, b in pairs:
            assert check_pair(a, b).outcome is check_pair(b, a).outcome

    def test_projection_paired_with_pairwise_mean(self):
        v = check_pair(k_mean(0.5), schur_pair_mean(power(2.0)))
        assert v.outcome is Outcome.ADMISSIBLE
        assert v.rule == "pair-mean-shape"

    def test_unknown_pair_reports_oracle_evidence(self):
        # no closed-form criterion covers this weight order; the oracle comes
        # back empty at the given resolution and says so
        v = check_pair(k_mean(0.5), exponential_mean(3.0, 0.3), resolution=80)
        assert v.outcome in (Outcome.UNKNOWN, Outcome.NOT_ADMISSIBLE)
        if v.outcome is Outcome.UNKNOWN:
            assert "resolution" in v.note
        else:
            assert_valid_witness(v, k_mean(0.5), exponential_mean(3.0, 0.3))

    def test_descriptor_without_quasi_view_is_left_to_the_oracle(self):
        class Opaque:  # a user family that states no quasi view
            pass

        base = root_power_mean(2.0, 0.5)
        a = AggregationFunction("opaque", Opaque(), base.values)
        assert quasi_view(a) is None
        v = check_pair(a, root_power_mean(0.5, 0.5), use_oracle=False)
        assert v.outcome is Outcome.UNKNOWN

    def test_verdict_serialization(self):
        v = check_pair(geometric_mean(0.3), geometric_mean(0.7))
        d = v.to_json_dict()
        assert d["outcome"] == "not_admissible"
        assert d["witness"] is not None
        assert set(d["witness"]) == {"u", "x", "residual_a", "residual_b"}


PRODUCT = tnorm(negated_log())
PROBABILISTIC_SUM = tconorm(negated_log_complement())

# Pairs across families, each side with a quasi view; (pair, outcome, rule),
# the same in both orientations
CROSS_FAMILY = [
    ((schur_pair_mean(power(2.0)), root_power_mean(2.0, 0.3)),
     Outcome.ADMISSIBLE, "weight-order-shape"),
    ((schur_pair_mean(power(2.0)), root_power_mean(3.0, 0.5)),
     Outcome.ADMISSIBLE, "equal-weights-shape"),
    ((PRODUCT, root_power_mean(2.0, 0.5)), Outcome.ADMISSIBLE, "equal-weights-shape"),
    ((PROBABILISTIC_SUM, root_power_mean(3.0, 0.5)),
     Outcome.NOT_ADMISSIBLE, "equal-weights-collision"),
    ((PRODUCT, schur_pair_mean(power(2.0))), Outcome.ADMISSIBLE, "equal-weights-shape"),
    ((PROBABILISTIC_SUM, schur_pair_mean(power(0.5))),
     Outcome.ADMISSIBLE, "equal-weights-shape"),
    ((PRODUCT, k_mean(0.3)), Outcome.NOT_ADMISSIBLE, "weighted-collision"),
    ((schur_pair_mean(power(2.0)), k_mean(0.3)), Outcome.ADMISSIBLE, "weight-order-shape"),
    ((PROBABILISTIC_SUM, exponential_mean(1.0, 0.7)),
     Outcome.NOT_ADMISSIBLE, "weighted-collision"),
    ((PRODUCT, schur_pair_mean(identity())), Outcome.ADMISSIBLE, "equal-weights-shape"),
]
CROSS_FAMILY_ORIENTED = [
    pytest.param(a, b, outcome, rule, id=f"{a.name} vs {b.name}")
    for (p, q), outcome, rule in CROSS_FAMILY
    for a, b in ((p, q), (q, p))
]


class TestCrossFamily:
    """Pairs of different families are decided by the quasi-linear rules
    through the quasi views of both sides."""

    @pytest.mark.parametrize("a, b, outcome, rule", CROSS_FAMILY_ORIENTED)
    def test_rule_verdict(self, a, b, outcome, rule):
        v = check_pair(a, b, use_oracle=False)
        assert (v.outcome, v.rule) == (outcome, rule)
        if outcome is Outcome.NOT_ADMISSIBLE:
            assert make_witness(a, b, v.witness.u, v.witness.x) is not None

    @pytest.mark.parametrize("a, b, outcome, rule", [
        p for p in CROSS_FAMILY_ORIENTED if p.values[2] is Outcome.ADMISSIBLE])
    def test_admissible_verdicts_agree_with_the_oracle(self, a, b, outcome, rule):
        assert oracle_search(a, b, resolution=200) is None


@pytest.fixture(scope="module")
def battery_verdicts():
    return [
        (check_pair(case.a, case.b, use_oracle=False), check_pair(case.b, case.a, use_oracle=False))
        for case in build_battery()
    ]


class TestBatteryRules:
    """Which rule decides each battery case, collision searches included."""

    RULES = {
        "weight-order-shape": 58,
        "conjunctive-saturation": 40,
        "equal-weights-shape": 36,
        "equal-weights-collision": 30,
        "projection-pair": 6,
        "nilpotent-collision": 6,
        "pair-mean-shape": 6,
        "strict-archimedean-shape": 2,
        "disjunctive-saturation": 2,
        "pair-mean-collision": 2,
    }

    def test_rule_histogram(self, battery_verdicts):
        rules = Counter(v.rule for pair in battery_verdicts for v in pair)
        assert rules == self.RULES

    def test_both_orientations_name_the_same_rule(self, battery_verdicts):
        for ab, ba in battery_verdicts:
            assert ab.rule == ba.rule

    def test_builtin_shapes_are_certified(self, battery_verdicts):
        # every battery generator has a registry row, so no verdict rests on
        # the numeric shape scan
        assert not [v.note for pair in battery_verdicts for v in pair if "numeric" in v.note]

    def test_verdicts_match_the_pinned_table(self, battery_verdicts):
        # battery_verdicts.csv holds one row per case and orientation (ab is
        # check_pair(a, b), ba is check_pair(b, a)): outcome, rule, note and
        # the float.hex of the witness endpoints and residuals, empty
        # without a witness; it is written with csv.writer from these rows
        with open(Path(__file__).with_name("battery_verdicts.csv"), newline="") as fh:
            header, *pinned = csv.reader(fh)
        assert header[:5] == ["label", "orientation", "outcome", "rule", "note"]
        rows = []
        for case, pair in zip(build_battery(), battery_verdicts):
            for orientation, v in zip(("ab", "ba"), pair):
                w = v.witness
                bits = [""] * 6 if w is None else [
                    float(t).hex() for t in (w.u.lo, w.u.hi, w.x.lo, w.x.hi, w.residual_a, w.residual_b)]
                rows.append([case.label, orientation, v.outcome.value, v.rule, v.note, *bits])
        assert len(rows) == len(pinned) == 188
        for got, want in zip(rows, pinned):
            assert got == want


def _reference_candidate_pairs(lo, hi, va, vb, quantum):
    """The oracle's candidate pairs built with dicts of lists, sorted by the
    lexicographic key of the oriented pair."""
    ka = np.floor(va / quantum).astype(np.int64)
    kb = np.floor(vb / quantum).astype(np.int64)
    buckets: dict = {}
    for idx in range(lo.size):
        buckets.setdefault((int(ka[idx]), int(kb[idx])), []).append(idx)
    pairs = []
    for (i, j), members in buckets.items():
        pairs.extend((m, n) for k, m in enumerate(members) for n in members[k + 1:])
        for di, dj in ((0, 1), (1, -1), (1, 0), (1, 1)):
            pairs.extend((m, n) for m in members for n in buckets.get((i + di, j + dj), []))
    pairs = [(m, n) for m, n in pairs
             if not (abs(va[m] - va[n]) > quantum * 1.5 or abs(vb[m] - vb[n]) > quantum * 1.5)]
    oriented = [(m, n) if (lo[m], hi[m]) < (lo[n], hi[n]) else (n, m) for m, n in pairs]
    return sorted(oriented, key=lambda p: (lo[p[0]], hi[p[0]], lo[p[1]], hi[p[1]]))


def all_candidate_pairs(va, vb, quantum):
    """Every slice of :func:`_candidate_slices`, untruncated, as (m, n)
    sorted by (m, n)."""
    keys = [pair for pair, _ in _candidate_slices(va, vb, quantum)]
    key = np.sort(np.concatenate([np.empty(0, np.int64), *keys]))
    return key // va.size, key % va.size


def in_slices(check, *args):
    """``check(*args)`` with ``CANDIDATE_SLICE`` patched to 1, then to 7:
    such slices split an interval's runs mid-way."""
    for size in (1, 7):
        with mock.patch.object(admissibility, "CANDIDATE_SLICE", size):
            check(*args)


class TestCandidatePairs:
    @pytest.mark.parametrize("a, b", [
        (geometric_mean(0.5), geometric_mean(0.5)),
        (logit_mean(0.5), exponential_mean(1.0, 0.5)),
        (tnorm(one_minus()), tconorm(negated_log_complement())),
        (k_mean(0.3), k_mean(0.7)),
    ], ids=lambda af: af.name)
    def test_matches_dict_bucketing_on_the_grid(self, a, b):
        lo, hi = interval_grid(60)
        va, vb = a.values(lo, hi), b.values(lo, hi)
        for quantum in (1e-4, 1e-2):
            m, n = all_candidate_pairs(va, vb, quantum)
            assert list(zip(m.tolist(), n.tolist())) == \
                _reference_candidate_pairs(lo, hi, va, vb, quantum)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_dict_bucketing_on_crowded_buckets(self, seed):
        # values on a coarse lattice put many intervals in few buckets
        rng = np.random.default_rng(seed)
        lo, hi = interval_grid(12)
        va = rng.integers(0, 6, lo.size) * 0.7e-4
        vb = rng.integers(0, 6, lo.size) * 0.9e-4
        want = _reference_candidate_pairs(lo, hi, va, vb, 1e-4)

        def check():
            m, n = all_candidate_pairs(va, vb, 1e-4)
            assert list(zip(m.tolist(), n.tolist())) == want

        check()
        in_slices(check)


def assert_same_as_five_offset_builder(va, vb, quantum):
    m, n = all_candidate_pairs(va, vb, quantum)
    want_m, want_n = reference_candidate_pairs(va, vb, quantum)
    assert m.dtype == want_m.dtype and n.dtype == want_n.dtype
    assert np.array_equal(m, want_m) and np.array_equal(n, want_n)


def saturated_values(lo, hi):
    """(A, B) value pairs on the grid (lo, hi) with many exact ties."""
    t = tnorm(one_minus()).values(lo, hi)  # zero on most of the grid
    s = tconorm(identity()).values(lo, hi)  # one on most of the grid
    return (t, s), (s, t), (np.zeros_like(t), s), (t, np.full_like(t, 0.25))


def assert_cut_at_the_first_direct_hit(lo, hi, va, vb, quantum):
    """:func:`_candidate_pairs` is the full sorted list up to its first
    direct hit, and that hit."""
    m, n, hit = _candidate_pairs(lo, hi, va, vb, quantum)
    want_m, want_n = reference_candidate_pairs(va, vb, quantum)
    gap = np.maximum(np.abs(lo[want_m] - lo[want_n]), np.abs(hi[want_m] - hi[want_n]))
    direct = np.flatnonzero((gap >= WITNESS_GAP)
                            & (np.abs(va[want_m] - va[want_n]) <= ORACLE_CONFIRM)
                            & (np.abs(vb[want_m] - vb[want_n]) <= ORACLE_CONFIRM))
    stop = int(direct[0]) if direct.size else want_m.size
    assert np.array_equal(m, want_m[:stop]) and np.array_equal(n, want_n[:stop])
    assert hit == (None if stop == want_m.size else (want_m[stop], want_n[stop]))


class TestCandidatePairsMatchFiveOffsetBuilder:
    """The two key ranges, expanded a slice at a time, give the arrays that
    one range per neighbouring bucket gave."""

    @pytest.mark.parametrize("resolution", [50, 100, 141, 200])
    def test_every_battery_pair(self, resolution):
        lo, hi = interval_grid(resolution)
        for case in build_battery():
            va, vb = case.a.values(lo, hi), case.b.values(lo, hi)
            for quantum in (1e-4, 1e-3):
                assert_same_as_five_offset_builder(va, vb, quantum)
            assert_cut_at_the_first_direct_hit(lo, hi, va, vb, 1e-4)

    def test_saturated_tnorms_and_a_constant_value(self):
        lo, hi = interval_grid(50)
        for va, vb in saturated_values(lo, hi):
            for quantum in (1e-4, 1e-2):
                assert_same_as_five_offset_builder(va, vb, quantum)
                assert_cut_at_the_first_direct_hit(lo, hi, va, vb, quantum)

    def test_saturated_values_in_small_slices(self):
        # a coarser grid than above: there, one-pair slices would number 10^6
        lo, hi = interval_grid(12)
        for va, vb in saturated_values(lo, hi):
            for quantum in (1e-4, 1e-2):
                in_slices(assert_same_as_five_offset_builder, va, vb, quantum)
                in_slices(assert_cut_at_the_first_direct_hit, lo, hi, va, vb, quantum)

    def test_single_interval_and_single_cell(self):
        one = np.array([0.5])
        assert_same_as_five_offset_builder(one, one, 1e-4)
        m, n = all_candidate_pairs(one, one, 1e-4)
        assert m.size == n.size == 0
        cell = np.linspace(0.30001, 0.30009, 7)
        assert_same_as_five_offset_builder(cell, cell[::-1].copy(), 1e-4)
        in_slices(assert_same_as_five_offset_builder, cell, cell[::-1].copy(), 1e-4)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_keys_in_the_first_and_last_b_columns(self, seed):
        # B's buckets crowd 0 and the top one, where the (ka, kb + 1) and
        # (ka + 1, kb - 1) neighbours fall into the empty key column
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 400))
        va = rng.integers(0, 8, size) * 0.6e-4
        vb = rng.choice([0.0, 1e-4, 2.4e-4, 2.9e-4], size) + rng.random(size) * 0.5e-4
        assert_same_as_five_offset_builder(va, vb, 1e-4)


class TestOracle:
    def test_distinct_projections_have_no_collision(self):
        assert oracle_search(k_mean(0.3), k_mean(0.7), resolution=200) is None

    def test_geometric_self_pair_collides_on_zero_edge(self):
        found = oracle_search(geometric_mean(0.5), geometric_mean(0.5), resolution=200)
        assert found is not None
        u, x = found
        assert u.lo == 0.0 and x.lo == 0.0
        # the lexicographically smallest confirmed pair comes back first
        assert u == Interval(0.0, 0.0)
        assert x == Interval(0.0, 0.005)

    def test_admissible_pairwise_means_have_no_collision(self):
        a = schur_pair_mean(power(2.0))
        b = schur_pair_mean(power(0.5))
        assert oracle_search(a, b, resolution=200) is None

    def test_collision_found_for_mixed_composite(self):
        found = oracle_search(logit_mean(0.5), exponential_mean(1.0, 0.5), resolution=120)
        assert found is not None
        u, x = found
        a, b = logit_mean(0.5), exponential_mean(1.0, 0.5)
        assert abs(a(u) - a(x)) <= 1e-9
        assert abs(b(u) - b(x)) <= 1e-9

    def test_rejects_low_resolution(self):
        with pytest.raises(ValueError):
            oracle_search(k_mean(0.3), k_mean(0.7), resolution=40)

    def test_flat_level_set_gives_the_lexicographically_smallest_pair(self):
        # T = Lukasiewicz is 0 on a whole region; refining there along the
        # top of that flat level set would return [0, 0.19] vs [0.1, 0.1]
        a, b = tnorm(one_minus()), tconorm(negated_log_complement())
        u, x = oracle_search(a, b, resolution=100)
        assert u == Interval(0.0, 0.02)
        assert make_witness(a, b, u, x) is not None

    def test_battery_at_resolution_100(self):
        for case in build_battery():
            found = oracle_search(case.a, case.b, resolution=100)
            assert (found is None) == (case.expected is Outcome.ADMISSIBLE), case.label
            if found is not None:
                assert make_witness(case.a, case.b, *found) is not None, case.label


def _bits(found):
    """found/None and the exact bits of u and x."""
    return None if found is None else tuple(v.hex() for z in found for v in z.as_tuple())


def _without_closed_form(af):
    """A with its values but a descriptor that has no ``solve_hi``, so every
    level curve is bisected with one target per row."""
    return AggregationFunction(f"plain {af.name}", object(), af._values)


# offsets that put u at, just inside and just outside the gap bounds
# (0.5e-4 for a flip's estimated root, 1e-4 for an exact zero)
near_bound = st.sampled_from([0.0, 1e-5, 4.9999e-5, 5e-5, 5.0001e-5, 9.9999e-5, 1e-4, 2e-4])
residual = st.one_of(st.sampled_from([0.0, 5e-324, -5e-324, 1e-300]),
                     st.floats(min_value=-1e-3, max_value=1e-3))
# one row of level-curve samples: first x1, x1 step, (x2 - x1, residual) per
# sample, the sample u sits near, u's offsets from it and their signs
sample_row = st.tuples(
    st.floats(min_value=0.0, max_value=0.9), st.sampled_from([1e-5, 4e-5, 1.25e-4, 4e-4]),
    st.lists(st.tuples(st.floats(min_value=0.0, max_value=0.05), residual),
             min_size=1, max_size=10),
    st.integers(0, 9), near_bound, near_bound, st.booleans(), st.booleans())


class TestOracleBlocks:
    """The block refinement against the per-candidate loop it replaced."""

    # blocks of 1 and 7 put block boundaries mid-list; rows never share a flip
    @pytest.mark.parametrize("resolution, block, swap", [
        (60, None, False), (100, None, False), (100, None, True), (60, 1, False), (60, 7, False)])
    def test_battery_matches_the_per_candidate_loop(self, resolution, block, swap, monkeypatch):
        if block is not None:
            monkeypatch.setattr(admissibility, "REFINE_BLOCK", block)
        for case in build_battery():
            a, b = (case.b, case.a) if swap else (case.a, case.b)
            assert _bits(oracle_search(a, b, resolution=resolution)) == \
                _bits(reference_oracle_search(a, b, resolution=resolution)), case.label

    # first blocks of 1 and 3 put the growing blocks' boundaries elsewhere;
    # a first block above the cap starts at the cap
    @pytest.mark.parametrize("first, cap", [(1, 4), (3, 64), (16, 5)])
    def test_growing_blocks_match_the_per_candidate_loop(self, first, cap, monkeypatch):
        monkeypatch.setattr(admissibility, "REFINE_FIRST", first)
        monkeypatch.setattr(admissibility, "REFINE_BLOCK", cap)
        for case in build_battery():
            assert _bits(oracle_search(case.a, case.b, resolution=60)) == \
                _bits(reference_oracle_search(case.a, case.b, resolution=60)), case.label

    @pytest.mark.parametrize("first, cap, sizes", [
        (None, None, [8, 16, 32, 64, 64, 64, 30]),
        (1, 4, [1, 2, 4] + [4] * 67 + [3]),
        (100, 128, [100, 128, 50]),
    ])
    def test_blocks_double_from_the_first_to_the_cap(self, first, cap, sizes, monkeypatch):
        if first is not None:
            monkeypatch.setattr(admissibility, "REFINE_FIRST", first)
            monkeypatch.setattr(admissibility, "REFINE_BLOCK", cap)
        refined = []

        def record(a, b, lo, hi, va, vb, ms, ns, window):
            refined.append((ms, ns))
            return None

        monkeypatch.setattr(admissibility, "_refine_block", record)
        # 278 candidates and no direct hit at R=60
        a, b = root_power_mean(3.0, 0.9), root_power_mean(3.0, 0.4)
        assert oracle_search(a, b, resolution=60) is None
        assert [ms.size for ms, _ in refined] == sizes
        lo, hi = interval_grid(60)
        want_m, want_n = reference_candidate_pairs(a.values(lo, hi), b.values(lo, hi),
                                                   admissibility.ORACLE_QUANTUM)
        assert np.array_equal(np.concatenate([ms for ms, _ in refined]), want_m)
        assert np.array_equal(np.concatenate([ns for _, ns in refined]), want_n)

    @pytest.mark.parametrize("w", [0.26, 0.27, 0.28, 0.3])
    def test_weights_near_the_threshold(self, w):
        a, b = k_mean(w), exponential_mean(-1.0, 0.5)
        for resolution in (100, 200):
            assert _bits(oracle_search(a, b, resolution=resolution)) == \
                _bits(reference_oracle_search(a, b, resolution=resolution))

    @pytest.mark.parametrize("a, b", [
        (root_power_mean(1.5, 0.5), exponential_mean(1.0, 0.5)),
        (geometric_mean(0.4), exponential_mean(-2.0, 0.4)),
        (schur_pair_mean(power(2.0)), schur_pair_mean(power(2.0))),
        (root_power_mean(3.0, 0.9), root_power_mean(3.0, 0.4)),
    ], ids=lambda af: af.name)
    def test_descriptor_without_closed_form(self, a, b):
        plain = _without_closed_form(a)
        assert _bits(oracle_search(plain, b, resolution=60)) == \
            _bits(reference_oracle_search(plain, b, resolution=60))

    def test_array_rejections_keep_every_root_the_scalar_test_polishes(self, monkeypatch):
        tried = set()

        def record(a, b, u, target_a, target_b, x1a, x1b, x2):
            tried.add((u.as_tuple(), x1a, x1b))
            return None

        monkeypatch.setattr(admissibility, "_level_curve_witness", record)
        kept = 0
        for case in build_battery():
            tried.clear()
            oracle_search(case.a, case.b, resolution=60)
            roots = reference_tail_roots(case.a, case.b, resolution=60)
            assert roots <= tried, case.label
            kept += len(roots)
        assert kept > 0

    @settings(max_examples=400, deadline=None)
    @given(st.lists(sample_row, min_size=1, max_size=6))
    def test_array_rejections_are_conservative(self, drawn):
        rows, x1s, x2s, res, ulo, uhi = [], [], [], [], [], []
        for i, (start, step, samples, j, dlo, dhi, neg_lo, neg_hi) in enumerate(drawn):
            x1 = start + step * np.arange(len(samples))
            x2 = x1 + np.array([d for d, _ in samples])
            j = min(j, len(samples) - 1)
            rows += [i] * len(samples)
            x1s.append(x1)
            x2s.append(x2)
            res += [r for _, r in samples]
            ulo.append(x1[j] + (-dlo if neg_lo else dlo))
            uhi.append(x2[j] + (-dhi if neg_hi else dhi))
        rows, res = np.array(rows), np.array(res)
        x1s, x2s = np.concatenate(x1s), np.concatenate(x2s)
        ulo, uhi = np.array(ulo), np.array(uhi)
        first, last = _root_brackets(rows, x1s, x2s, res, ulo, uhi)
        got = list(zip(first.tolist(), last.tolist()))
        # each pair is a flip of one row or an exact zero, by row, then
        # flips before zeros, each in sample order
        keys = [(int(rows[i]), i == j, i) for i, j in got]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        for i, j in got:
            if i == j:
                assert res[i] == 0.0
            else:
                assert j == i + 1 and rows[i] == rows[j] and np.sign(res[i]) * np.sign(res[j]) < 0
        for i in range(len(drawn)):
            on = np.flatnonzero(rows == i)
            want = [(int(on[0]) + f, int(on[0]) + l) for f, l in
                    reference_row_roots(ulo[i], uhi[i], x1s[on], x2s[on], res[on])]
            # every root the reference polishes, in the reference's order
            remaining = iter(got)
            assert all(root in remaining for root in want)


class TestOracleMemory:
    @pytest.mark.parametrize("label", [
        "projection(0.5) vs projection(0.5)", "Lukasiewicz t-norm vs bounded sum"])
    def test_pairs_after_the_first_direct_hit_are_never_held(self, label):
        # both pairs have 671,650 candidates at R=200 and a direct hit at the
        # third interval; holding every candidate took 28 MiB
        case = next(c for c in build_battery() if c.label == label)
        tracemalloc.start()
        try:
            found = oracle_search(case.a, case.b, resolution=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == (Interval(0.0, 0.01), Interval(0.005, 0.005))
        assert peak <= 8 * 2**20


class TestWeightOrderDiagnostic:
    def test_generators_without_a_registry_row_give_none(self):
        f, g = (dataclasses.replace(power(p), kind=None, param=None) for p in (2.0, 3.0))
        for increasing in (True, False):
            assert admissible_for_all_weight_orders(f, g, increasing_weights=increasing) is None

    def test_identity_pair_admissible_for_all_increasing_weights(self):
        assert admissible_for_all_weight_orders(identity(), identity()) is True

    def test_concave_increasing_composite_needs_decreasing_weights(self):
        assert admissible_for_all_weight_orders(power(2.0), logarithm(),
                                                increasing_weights=True) is False
        assert admissible_for_all_weight_orders(power(2.0), logarithm(),
                                                increasing_weights=False) is True

    def test_saturating_pair_never_qualifies(self):
        assert admissible_for_all_weight_orders(logarithm(), logarithm()) is False

    def test_mixed_composite_never_qualifies(self):
        assert admissible_for_all_weight_orders(logit(), exponential(1.0)) is False
