import csv
import dataclasses
import math
import tracemalloc
import warnings
from collections import Counter
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from intervalorders import (
    AggregationError,
    AggregationFunction,
    Interval,
    Outcome,
    QuasiLinear,
    SchurPair,
    TConorm,
    TNorm,
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
    registry_composite_shape,
    root_power_mean,
    rule_k0_k1,
    rule_quasi_linear,
    interval_grid,
    rule_nilpotent,
    schur_pair_mean,
    tconorm,
    tnorm,
)
from intervalorders import admissibility
from intervalorders.admissibility import (
    ORACLE_CONFIRM,
    TURN_TOL,
    WITNESS_GAP,
    _grid_tie,
    _level_roots,
    _oracle_layout,
    _saturation_verdict,
    _scan_levels,
    _steps,
    quasi_view,
)
from intervalorders.generators import Convexity, _weight_band
from coverage_sweep import sweep_pairs
from oracle_witnesses import FIELDS as WITNESS_FIELDS, witness_rows
import band_witnesses
import nilpotent_witnesses
import sweep_oracle_witnesses
import level_reference


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


class TestQuasiLinearRule:
    @pytest.mark.parametrize("other", [k_mean(0.0), tnorm(one_minus())],
                             ids=["K_0", "Lukasiewicz"])
    def test_none_without_a_quasi_view(self, other):
        mean = quasi_linear_mean(power(2.0), 0.5)
        assert rule_quasi_linear(other, mean) is None
        assert rule_quasi_linear(mean, other) is None

    def test_saturation_comes_first_on_a_direct_call(self):
        a, b = geometric_mean(0.3), geometric_mean(0.7)
        v = rule_quasi_linear(a, b)
        assert (v.outcome, v.rule) == (Outcome.NOT_ADMISSIBLE, "conjunctive-saturation")
        assert_valid_witness(v, a, b)


class TestEqualWeights:
    def test_root_power_pair_admissible(self):
        v = rule_quasi_linear(quasi_linear_mean(power(2.0), 0.5),
                              quasi_linear_mean(power(0.5), 0.5))
        assert v.outcome is Outcome.ADMISSIBLE

    def test_exponential_pair_admissible(self):
        v = rule_quasi_linear(quasi_linear_mean(exponential(1.0), 0.3),
                              quasi_linear_mean(exponential(2.0), 0.3))
        assert v.outcome is Outcome.ADMISSIBLE

    def test_logit_vs_exponential_not_admissible_with_witness(self):
        v = rule_quasi_linear(quasi_linear_mean(logit(), 0.5),
                              quasi_linear_mean(exponential(1.0), 0.5))
        assert v.outcome is Outcome.NOT_ADMISSIBLE
        assert_valid_witness(v, logit_mean(0.5), exponential_mean(1.0, 0.5))

    def test_identity_pair_collides(self):
        v = rule_quasi_linear(quasi_linear_mean(identity(), 0.5),
                              quasi_linear_mean(identity(), 0.5))
        assert v.outcome is Outcome.NOT_ADMISSIBLE
        assert_valid_witness(v, k_mean(0.5), k_mean(0.5))


# Pairs whose composite has parameters next to a root of the registry's N
# = R_g - R_f, with their (outcome, rule, note), the same in both
# orientations:
# - x^(1+1e-10) vs e^x: N = -(x - 1)(x - 1e-10) changes sign inside (0,1),
#   so the composite is not strictly convex;
# - K_1/2 vs the x^(1+1e-13) mean: N = 1e-13 (1 - x) > 0, so the composite
#   is strictly convex and no collision exists;
# - at unequal weights log rho = -1.69 lies inside the band (-inf, 1) of
#   the first pair, and 1.69 inside the band (0, inf) of the second, but B
#   turns along A's level curves only where 1e-10 ln x1 is about -1.69, or
#   where 1e-13 ln(x2/x1) is about 1.69: no float witness exists, and the
#   note says so.
NO_BAND_WITNESS = "weight ratio inside the band, but no collision in floats was found"
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
     (Outcome.NOT_ADMISSIBLE, "weight-band", NO_BAND_WITNESS)),
    ("k_mean(0.7) vs power(1+1e-13, w=0.3)",
     (k_mean(0.7), quasi_linear_mean(power(1 + 1e-13), 0.3)),
     (Outcome.NOT_ADMISSIBLE, "weight-band", NO_BAND_WITNESS)),
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
        v = rule_quasi_linear(quasi_linear_mean(power(-1.0), 0.2),
                              quasi_linear_mean(power(2.0), 0.8))
        assert v.outcome is Outcome.ADMISSIBLE

    def test_root_power_vs_geometric_weight_dominant(self):
        v = rule_quasi_linear(quasi_linear_mean(power(2.0), 0.7),
                              quasi_linear_mean(logarithm(), 0.3))
        assert v.outcome is Outcome.ADMISSIBLE

    def test_identity_pair_any_weight_order(self):
        for w1, w2 in ((0.3, 0.7), (0.7, 0.3)):
            v = rule_quasi_linear(quasi_linear_mean(identity(), w1),
                                  quasi_linear_mean(identity(), w2))
            assert v.outcome is Outcome.ADMISSIBLE

    def test_band_decides_the_region_no_table_row_covers(self):
        # a concave increasing composite (y^0.5 on (1, e)) with w1 < w2: its
        # band is (-0.5, 0), and log rho = logit(0.2) - logit(0.6) = -1.79
        # lies below it
        v = rule_quasi_linear(quasi_linear_mean(exponential(1.0), 0.2),
                              quasi_linear_mean(exponential(0.5), 0.6))
        assert (v.outcome, v.rule) == (Outcome.ADMISSIBLE, "weight-band")
        band = _weight_band("exponential", 1.0, "exponential", 0.5)
        assert (band.lo, band.hi) == (-0.5, 0.0)

    def test_generators_without_registry_row_have_no_shape_verdict(self):
        # power(2) at w = 0.2 and power(3) at w = 0.5 stripped of their
        # registry kind: no band is certified, so no shape criterion
        # applies, and in both orientations the pair stays UNKNOWN, with
        # the oracle's empty scan labelled as evidence
        f, g = (dataclasses.replace(power(e), kind=None, param=None) for e in (2.0, 3.0))
        a, b = quasi_linear_mean(f, 0.2), quasi_linear_mean(g, 0.5)
        for x, y in ((a, b), (b, a)):
            v = check_pair(x, y, use_oracle=False)
            assert (v.outcome, v.rule) == (Outcome.UNKNOWN, "rules")
            v = check_pair(x, y, resolution=100)
            assert (v.outcome, v.rule, v.note) == (
                Outcome.UNKNOWN, "oracle",
                "no collision found at resolution 100 (evidence, not proof)")
        builtin = check_pair(root_power_mean(2.0, 0.2), root_power_mean(3.0, 0.5))
        assert (builtin.outcome, builtin.rule, builtin.note) == (
            Outcome.ADMISSIBLE, "weight-order-shape", "")

    def test_no_row_with_located_collision_is_excluded(self):
        # same structure but with a composite whose slope ratio is unbounded:
        # here a genuine collision exists and the scan converts it into a
        # verified exclusion
        v = rule_quasi_linear(quasi_linear_mean(identity(), 0.6),
                              quasi_linear_mean(exponential(3.0), 0.3))
        assert v.outcome is Outcome.NOT_ADMISSIBLE
        assert_valid_witness(v, k_mean(0.6), exponential_mean(3.0, 0.3))


def nilpotent_flat_pairs():
    """(K, B, u, x) for each projection K_0 or K_1 and nilpotent B of the
    hand-built and builtin generators of ``tests/nilpotent_witnesses.py``
    that saturation leaves to the K_0/K_1 rule: K_1 against each nilpotent
    t-norm, x = [p, c], and K_0 against each nilpotent t-conorm, x = [c, q],
    with c the midpoint of B's saturated square [p, q]^2; u = [c, c]."""
    cases = []
    for k, make, gens in ((1.0, tnorm, nilpotent_witnesses.T_GENERATORS),
                          (0.0, tconorm, nilpotent_witnesses.S_GENERATORS)):
        for gen in gens:
            b = make(gen())
            square = admissibility._nilpotent_square(b)
            if square is None:
                continue
            p, q = square
            c = 0.5 * (p + q)
            cases.append(pytest.param(k_mean(k), b, Interval(c, c),
                                      Interval(p, c) if k else Interval(c, q),
                                      id=f"K_{k:g} vs {b.name}"))
    return cases


# every descriptor kind with a quasi view, on every builtin generator valid
# for it; power and exponential at drawn parameters
parameters = st.floats(0.05, 30.0)
signed_parameters = parameters | parameters.map(lambda v: -v)
builtin_generators = st.one_of(
    signed_parameters.map(power), signed_parameters.map(exponential),
    st.sampled_from([logarithm, logit, negated_log, negated_log_complement, one_minus,
                     identity]).map(lambda make: make()))
view_weights = st.floats(1e-9, 1.0 - 1e-9)
viewed_aggregators = st.one_of(
    st.builds(quasi_linear_mean, builtin_generators, view_weights),
    st.builds(k_mean, view_weights),
    st.builds(schur_pair_mean, parameters.map(power) | st.just(identity())),
    st.just(tnorm(negated_log())),
    st.just(tconorm(negated_log_complement())))


class TestEndpointProjectionRule:
    def test_strict_tnorm_fails_flat_second_argument(self):
        v = rule_k0_k1(tnorm(negated_log()), 0.0)
        assert v.outcome is Outcome.NOT_ADMISSIBLE
        assert v.rule == "conjunctive-saturation"
        w = v.witness
        assert w.u.lo == w.x.lo == 0.0  # B(0, x) = 0 stretch

    def test_midpoint_projection_passes(self):
        v = rule_k0_k1(k_mean(0.5), 1.0)
        assert v.outcome is Outcome.ADMISSIBLE

    def test_other_projection_passes(self):
        v = rule_k0_k1(k_mean(1.0), 0.0)
        assert (v.outcome, v.rule, v.note) == (Outcome.ADMISSIBLE, "k0-second-arg-strict", "")

    def test_pairwise_mean_passes(self):
        v = rule_k0_k1(schur_pair_mean(power(2.0)), 0.0)
        assert v.outcome is Outcome.ADMISSIBLE

    def test_rejects_interior_weight(self):
        with pytest.raises(ValueError):
            rule_k0_k1(k_mean(0.5), 0.3)

    @pytest.mark.parametrize("b", [
        quasi_linear_mean(power(2.0), 1e-8),
        quasi_linear_mean(power(0.25), 0.01),
        quasi_linear_mean(exponential(-30.0), 0.5),
    ], ids=lambda b: b.name)
    def test_steep_views_are_strict(self, b):
        # B rises by less than 1e-9 over some steps of 0.05, yet strictly:
        # no flat stretch, and the oracle finds no collision
        a = k_mean(0.0)
        for x, y in ((a, b), (b, a)):
            v = check_pair(x, y, use_oracle=False)
            assert (v.outcome, v.rule, v.note) == (
                Outcome.ADMISSIBLE, "k0-second-arg-strict", "")
        assert oracle_search(a, b, resolution=200) is None

    @pytest.mark.parametrize("a,b,rule,u,x", [
        (k_mean(0.0), tconorm(identity()), "k0-flat-second-arg",
         Interval(0.75, 0.75), Interval(0.75, 1.0)),
        (k_mean(1.0), tnorm(one_minus()), "k1-flat-first-arg",
         Interval(0.25, 0.25), Interval(0.0, 0.25)),
    ], ids=["K_0 vs bounded sum", "K_1 vs Lukasiewicz"])
    def test_nilpotent_square_gives_the_exact_witness(self, a, b, rule, u, x):
        for p, q in ((a, b), (b, a)):
            v = check_pair(p, q, use_oracle=False)
            assert (v.outcome, v.rule) == (Outcome.NOT_ADMISSIBLE, rule)
            assert (v.witness.u, v.witness.x) == (u, x)
            assert v.witness.residual_a == v.witness.residual_b == 0.0

    @pytest.mark.parametrize("a,b,u,x", nilpotent_flat_pairs())
    def test_nilpotent_square_witness_on_every_generator(self, a, b, u, x):
        v = rule_k0_k1(b, a.descriptor.w)
        assert v.outcome is Outcome.NOT_ADMISSIBLE
        assert (v.witness.u, v.witness.x) == (u, x)
        assert v.witness.residual_a == v.witness.residual_b == 0.0
        assert check_pair(a, b) == v
        assert check_pair(b, a) == dataclasses.replace(v, witness=v.witness.swapped())

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([0.0, 1.0]), viewed_aggregators)
    def test_every_view_is_strict_or_saturated(self, k, b):
        assert quasi_view(b) is not None
        a = k_mean(k)
        strict = ("projection-pair" if admissibility._k_weight(b) is not None
                  else "k0-second-arg-strict" if k == 0.0 else "k1-first-arg-strict")
        for x, y in ((a, b), (b, a)):
            v = check_pair(x, y, use_oracle=False)
            if v.outcome is Outcome.ADMISSIBLE:
                assert (v.rule, v.note) == (strict, "")
            else:
                assert v.rule in ("conjunctive-saturation", "disjunctive-saturation")

    def test_opaque_descriptor_is_left_to_the_oracle(self):
        class Opaque:  # a user family that states no quasi view
            pass

        b = AggregationFunction("opaque", Opaque(), root_power_mean(2.0, 0.5).values)
        assert rule_k0_k1(b, 0.0) is None
        for x, y in ((k_mean(0.0), b), (b, k_mean(0.0))):
            v = check_pair(x, y, use_oracle=False)
            assert (v.outcome, v.rule) == (Outcome.UNKNOWN, "rules")


class TestArchimedeanRule:
    def test_strict_pair_admissible(self):
        t, s = tnorm(negated_log()), tconorm(negated_log_complement())
        # two strict generators are left to the quasi-linear rules
        assert rule_nilpotent(t, s) is None
        for a, b in ((t, s), (s, t)):
            v = check_pair(a, b, use_oracle=False)
            assert v.outcome is Outcome.ADMISSIBLE
            assert v.rule == "strict-archimedean-shape"

    def test_nilpotent_tnorm_collides(self):
        t, s = tnorm(one_minus()), tconorm(negated_log_complement())
        v = rule_nilpotent(t, s)
        assert v.outcome is Outcome.NOT_ADMISSIBLE
        assert_valid_witness(v, t, s, tol=1e-12)

    def test_nilpotent_tconorm_collides(self):
        t, s = tnorm(negated_log()), tconorm(identity())
        v = rule_nilpotent(t, s)
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

    @pytest.mark.parametrize("t, s", [(identity(), identity()), (one_minus(), one_minus())],
                             ids=["two t-conorm generators", "two t-norm generators"])
    def test_rejects_generators_in_the_wrong_role(self, t, s):
        with pytest.raises(AggregationError):
            nilpotent_witness(t, s)

    def test_witnesses_match_the_pinned_table(self):
        # nilpotent_witnesses.csv pins the float.hex of the witness on 30
        # (t, s) pairs, and the error of the strict pair
        with open(Path(__file__).with_name("nilpotent_witnesses.csv"), newline="") as fh:
            header, *pinned = csv.reader(fh)
        assert tuple(header) == nilpotent_witnesses.FIELDS
        rows = nilpotent_witnesses.witness_rows()
        assert len(rows) == len(pinned) == 30
        for got, want in zip(rows, pinned):
            assert got == want


def saturated_square(af):
    """(value, p, q): a nilpotent t-norm is 0 on [0, m]^2 with m =
    t^{-1}(t(0)/2), and a nilpotent t-conorm 1 on [m, 1]^2 with m =
    s^{-1}(s(1)/2); None for any other A."""
    d = af.descriptor
    if isinstance(d, TNorm) and not d.is_strict:
        return 0.0, 0.0, float(d.generator.inv(0.5 * d.generator.at_zero))
    if isinstance(d, TConorm) and not d.is_strict:
        return 1.0, float(d.generator.inv(0.5 * d.generator.at_one)), 1.0
    return None


def assert_square_collision(a, b):
    """The rules exclude (a, b) by ``nilpotent-collision``, with the same u
    and x in both orientations, and a witness that ``make_witness`` accepts
    at 1e-12, lies in the saturated square and meets the saturated side's
    exact value there.  A t-norm's square is the one used; a second,
    nilpotent t-conorm side is not saturated below its own m, which
    shrinks the square."""
    v = check_pair(a, b, use_oracle=False)
    assert (v.outcome, v.rule) == (Outcome.NOT_ADMISSIBLE, "nilpotent-collision")
    u, x = v.witness.u, v.witness.x
    back = check_pair(b, a, use_oracle=False).witness
    assert (back.u, back.x) == (u, x)
    assert make_witness(a, b, u, x, 1e-12) is not None
    squares = sorted(((*sq, af) for af in (a, b) if (sq := saturated_square(af)) is not None),
                     key=lambda sq: sq[0])
    value, p, q, sat = squares[0]
    if len(squares) == 2:
        q = min(q, squares[1][1])
    for z in (u, x):
        assert p - 1e-12 <= z.lo <= z.hi <= q + 1e-12
        assert sat(z) == value


NILPOTENT_SIDES = [
    tnorm(one_minus()), tconorm(identity()), tconorm(power(2.0)), tconorm(power(0.5)),
    tnorm(nilpotent_witnesses.one_minus_square()), tnorm(nilpotent_witnesses.one_minus_sqrt()),
    tnorm(nilpotent_witnesses.twice_cubed_complement()),
    tconorm(nilpotent_witnesses.exp_minus_one()),
]
MEAN_GENERATORS = [power(0.25), power(0.5), power(2.0), power(3.0), power(-1.0),
                   exponential(-3.0), exponential(1.0), exponential(3.0), identity(), logarithm(),
                   negated_log_complement(), logit()]
weights = st.floats(0.05, 0.95)
partners = st.one_of(
    st.builds(quasi_linear_mean, st.sampled_from(MEAN_GENERATORS), weights),
    st.builds(k_mean, weights),
    st.builds(schur_pair_mean, st.sampled_from([power(0.5), power(2.0), power(3.0), identity()])))


class TestNilpotentRule:
    """A nilpotent t-norm or t-conorm collides with every side that has a
    quasi view, on the square where it saturates."""

    def test_sweep_pairs(self, coverage_sweep):
        pairs = [(a, b) for (a, b), row in coverage_sweep if row["rule"] == "nilpotent-collision"]
        # the three t-norm/t-conorm pairs and 42 with a mean, K_w or pair mean
        assert len(pairs) == 45
        for a, b in pairs:
            assert_square_collision(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(NILPOTENT_SIDES), partners)
    def test_drawn_pairs(self, nilpotent, partner):
        # a partner infinite where the nilpotent side saturates saturates
        # there too, which the saturation rules decide first
        assume(_saturation_verdict(nilpotent, partner) is None)
        assert_square_collision(nilpotent, partner)


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

    def test_builtin_shapes_are_certified(self):
        # every battery pair of quasi views has a registry row, so every
        # shape verdict rests on the closed form
        views = [(quasi_view(c.a), quasi_view(c.b)) for c in build_battery()]
        pairs = [(qa[0], qb[0]) for qa, qb in views if qa is not None and qb is not None]
        assert pairs
        assert all(registry_composite_shape(f, g) is not None for f, g in pairs)

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


def _without_closed_form(af):
    """A with its values but a descriptor that has no ``solve_hi``, so every
    level curve is bisected with one target per row."""
    return AggregationFunction(f"plain {af.name}", object(), af._values)


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
        # T = Lukasiewicz is 0 on a whole region, where its level set is not
        # a curve; the first grid pair with exactly equal T and S values
        # comes back
        a, b = tnorm(one_minus()), tconorm(negated_log_complement())
        u, x = oracle_search(a, b, resolution=100)
        assert (u, x) == (Interval(0.0, 0.19), Interval(0.1, 0.1))
        assert make_witness(a, b, u, x) is not None

    @pytest.mark.parametrize("resolution", [100, 200])
    def test_battery_in_both_orientations(self, resolution):
        for case in build_battery():
            for a, b in ((case.a, case.b), (case.b, case.a)):
                found = oracle_search(a, b, resolution=resolution)
                assert (found is None) == (case.expected is Outcome.ADMISSIBLE), case.label
                if found is not None:
                    assert make_witness(a, b, *found, ORACLE_CONFIRM) is not None, case.label

    def test_witnesses_match_the_pinned_table(self):
        # oracle_witnesses.csv pins the float.hex of every battery
        # orientation's witness at R = 100 and 200, empty where there is none
        with open(Path(__file__).with_name("oracle_witnesses.csv"), newline="") as fh:
            header, *pinned = csv.reader(fh)
        assert tuple(header) == WITNESS_FIELDS
        rows = witness_rows()
        assert len(rows) == len(pinned) == 376
        for got, want in zip(rows, pinned):
            assert got == want

    @pytest.mark.parametrize("a, b", [
        (root_power_mean(1.5, 0.5), exponential_mean(1.0, 0.5)),
        (geometric_mean(0.4), exponential_mean(-2.0, 0.4)),
        (schur_pair_mean(power(2.0)), schur_pair_mean(power(2.0))),
        (root_power_mean(3.0, 0.9), root_power_mean(3.0, 0.4)),
        (k_mean(0.3), exponential_mean(-1.0, 0.5)),
    ], ids=lambda af: af.name)
    def test_descriptor_without_closed_form(self, a, b):
        # bisected level curves find a collision exactly when the closed
        # form does
        plain = _without_closed_form(a)
        found = oracle_search(plain, b, resolution=60)
        assert (found is None) == (oracle_search(a, b, resolution=60) is None)
        if found is not None:
            assert make_witness(plain, b, *found, ORACLE_CONFIRM) is not None

    def test_roots_are_tried_in_order_and_the_first_accepted_wins(self, monkeypatch):
        tried = []
        accept = admissibility._level_curve_witness

        def record(a, b, u, target_a, target_b, x1a, x1b, x2):
            tried.append((target_a, min(u.lo, x1a, x1b)))
            if len(tried) == 3:
                return accept(a, b, u, target_a, target_b, x1a, x1b, x2)
            return None

        monkeypatch.setattr(admissibility, "_level_curve_witness", record)
        a, b = k_mean(0.3), exponential_mean(-1.0, 0.5)
        found = oracle_search(a, b, resolution=60)
        assert len(tried) == 3 and tried == sorted(tried)
        assert found is not None and make_witness(a, b, *found, ORACLE_CONFIRM) is not None
        tried.clear()
        monkeypatch.setattr(admissibility, "_level_curve_witness",
                            lambda *args: tried.append(args[3]))
        assert oracle_search(a, b, resolution=60) is None
        assert len(tried) > 3 and tried == sorted(tried)


class TestOracleLayout:
    """The grid, x1 samples and levels the oracle keeps per resolution."""

    def test_witnesses_match_the_pinned_table_across_resolutions(self):
        with open(Path(__file__).with_name("oracle_witnesses.csv"), newline="") as fh:
            _, *pinned = csv.reader(fh)
        want = {tuple(row[:3]): row for row in pinned}
        _oracle_layout.cache_clear()
        for resolution in (100, 200, 100):
            rows = witness_rows((resolution,))
            assert len(rows) == 188
            for row in rows:
                assert row == want[tuple(row[:3])]
        info = _oracle_layout.cache_info()
        assert (info.misses, info.hits) == (2, 3 * 188 - 2)

    def test_cached_arrays_are_read_only(self):
        layout = _oracle_layout(100)
        assert [arr.size for arr in layout] == [5151, 5151, 100, 99]
        assert not any(arr.flags.writeable for arr in layout)
        with pytest.raises(ValueError):
            layout[0][0] = 0.5
        assert _oracle_layout(100) is layout
        assert all(arr.flags.writeable for arr in (*interval_grid(50), *interval_grid(100)))


class TestOracleThreshold:
    """K_w against the w=1/2 mean of e^(-x): a collision exists exactly for
    w above e^-1 / (1 + e^-1) = 0.2689."""

    @pytest.mark.parametrize("resolution", [100, 200])
    @pytest.mark.parametrize("w, collides", [(0.26, False), (0.27, True), (0.28, True), (0.3, True)])
    def test_k_mean_vs_exponential(self, w, collides, resolution):
        a, b = k_mean(w), exponential_mean(-1.0, 0.5)
        found = oracle_search(a, b, resolution=resolution)
        assert (found is not None) == collides
        if collides:
            assert make_witness(a, b, *found) is not None



class TestExtremeWeights:
    """log rho = logit(w1) - logit(w2) where its log1p quotient rounds to -1
    (w = 1e-17), divides by zero (5e-324) or overflows (1e-310): log rho is
    about -39, 744 and 714, inside the band (0, inf) or (-inf, 0), and both
    orientations give that verdict without a RuntimeWarning."""

    NOTE = "weight ratio inside the band, but no collision in floats was found"

    @pytest.mark.parametrize("a,b", [
        (quasi_linear_mean(power(2.0), 1e-17), k_mean(0.5)),
        (root_power_mean(2.0, 0.5), root_power_mean(3.0, 5e-324)),
        (root_power_mean(2.0, 0.5), root_power_mean(3.0, 1e-310)),
    ], ids=["w=1e-17 vs K_1/2", "w=5e-324", "w=1e-310"])
    def test_band_excludes_in_both_orientations(self, a, b):
        for x, y in ((a, b), (b, a)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                v = check_pair(x, y, use_oracle=False)
            assert (v.outcome, v.rule, v.witness, v.note) == (
                Outcome.NOT_ADMISSIBLE, "weight-band", None, self.NOTE)

    def test_both_tiny_weights_agree(self):
        a, b = quasi_linear_mean(power(2.0), 1e-17), root_power_mean(3.0, 5e-324)
        v, back = check_pair(a, b, use_oracle=False), check_pair(b, a, use_oracle=False)
        assert (v.outcome, v.rule) == (back.outcome, back.rule) == (
            Outcome.NOT_ADMISSIBLE, "weighted-collision")
        assert_valid_witness(v, a, b)
        assert_valid_witness(back, b, a)

    @pytest.mark.parametrize("w", [5e-324, 1e-310, 1e-300])
    def test_square_witness_where_the_weight_ratio_overflows(self, w):
        # (1 - w) / w overflows below about 1e-308; the witness is still
        # u = [c, c] and x = [c, x2] on the Lukasiewicz square [0, 1/2]^2
        a, b = tnorm(one_minus()), root_power_mean(2.0, w)
        assert_square_collision(a, b)
        v = check_pair(a, b, use_oracle=False)
        assert (v.witness.u, v.witness.x) == (Interval(0.25, 0.25), Interval(0.25, 0.5))
        assert v.witness.residual_a == v.witness.residual_b == 0.0


class TestWeightBandThreshold:
    """The rules on the same pair: L(x) = -x, the band is (-1, 0), and the
    pair collides exactly when logit(w) lies in (-1, 0)."""

    # the float nearest e^-1 / (1 + e^-1), where logit(w) meets the band's
    # end within its edge bound
    NEAREST = float(1 / (1 + Decimal(1).exp()))

    @pytest.mark.parametrize("w", [0.26, 0.2689, 0.269, 0.27, 0.28, 0.49, 0.5, 0.51])
    def test_k_mean_vs_exponential(self, w):
        a, b = k_mean(w), exponential_mean(-1.0, 0.5)
        collides = -1.0 < math.log(w / (1.0 - w)) < 0.0
        for x, y in ((a, b), (b, a)):
            v = check_pair(x, y, use_oracle=False)
            if collides:
                assert (v.outcome, v.rule) == (Outcome.NOT_ADMISSIBLE, "weighted-collision")
                assert make_witness(x, y, v.witness.u, v.witness.x, ORACLE_CONFIRM) is not None
            else:
                assert v.outcome is Outcome.ADMISSIBLE

    def test_the_edge_is_left_undecided(self):
        a, b = k_mean(self.NEAREST), exponential_mean(-1.0, 0.5)
        for x, y in ((a, b), (b, a)):
            v = check_pair(x, y, use_oracle=False)
            assert (v.outcome, v.rule) == (Outcome.UNKNOWN, "rules")


class TestBandWitnesses:
    """Collisions that only the weight band finds, built along a level curve
    of A."""

    def test_witnesses_match_the_pinned_table(self):
        # band_witnesses.csv pins the float.hex of the witness of four pairs
        with open(Path(__file__).with_name("band_witnesses.csv"), newline="") as fh:
            header, *pinned = csv.reader(fh)
        assert tuple(header) == band_witnesses.FIELDS
        assert band_witnesses.witness_rows() == pinned
        assert len(pinned) == 4

    @pytest.mark.parametrize("a, b", band_witnesses.band_pairs(),
                             ids=[f"{a.name} vs {b.name}" for a, b in band_witnesses.band_pairs()])
    def test_each_is_accepted_at_oracle_confirm(self, a, b):
        for x, y in ((a, b), (b, a)):
            v = check_pair(x, y, use_oracle=False)
            assert (v.outcome, v.rule) == (Outcome.NOT_ADMISSIBLE, "weighted-collision")
            assert make_witness(x, y, v.witness.u, v.witness.x, ORACLE_CONFIRM) is not None

    def test_the_oracle_misses_two_of_them(self):
        # the oracle's samples do not reach the turns of B: near the corner
        # [0, 1] for K_0.269, and between two adjacent levels for the
        # geometric pair
        pairs = band_witnesses.band_pairs()
        for a, b in (pairs[0], pairs[3]):
            assert oracle_search(a, b, resolution=200) is None


def reference_grid_tie(a, b, lo, hi):
    """The smallest index pair (m, n), m < n, with exactly equal A and B
    values and endpoints at least ``WITNESS_GAP`` apart, over all pairs."""
    va, vb = a.values(lo, hi), b.values(lo, hi)
    tie = ((va[:, None] == va[None, :]) & (vb[:, None] == vb[None, :])
           & (np.maximum(np.abs(lo[:, None] - lo[None, :]),
                         np.abs(hi[:, None] - hi[None, :])) >= WITNESS_GAP))
    m, n = np.nonzero(np.triu(tie, k=1))
    if m.size == 0:
        return None
    return (Interval(float(lo[m[0]]), float(hi[m[0]])),
            Interval(float(lo[n[0]]), float(hi[n[0]])))


# Builtin aggregators on weights and generators that make many exact grid
# ties: quasi-linear means, projections K_w, pair means, and strict and
# nilpotent t-norms and t-conorms
builtin_aggregators = st.one_of(
    st.builds(quasi_linear_mean,
              st.sampled_from([power(2.0), power(0.5), power(-1.0), exponential(1.0),
                               exponential(-1.0), logarithm(), logit(), negated_log(),
                               one_minus(), identity()]),
              st.integers(1, 19).map(lambda i: i / 20)),
    st.integers(0, 20).map(lambda i: k_mean(i / 20)),
    st.sampled_from([schur_pair_mean(power(2.0)), schur_pair_mean(power(0.5)),
                     schur_pair_mean(identity()), tnorm(negated_log()), tnorm(one_minus()),
                     tconorm(negated_log_complement()), tconorm(identity())]))


class TestGridTie:
    """The exact grid ties :func:`_grid_tie` takes before any level curve."""

    @pytest.mark.parametrize("a, b", [
        (geometric_mean(0.5), geometric_mean(0.5)),
        (tnorm(one_minus()), tconorm(identity())),
        (tnorm(one_minus()), tconorm(negated_log_complement())),
        (k_mean(0.3), k_mean(0.7)),
        # at R = 50, A and B take no grid value twice
        (exponential_mean(1.0, 0.5), exponential_mean(2.0, 0.5)),
        # A repeats 53 grid values (on 57 intervals), B none
        (geometric_mean(0.4), exponential_mean(-1.0, 0.4)),
        # A repeats 391 grid values and B 438, with no tie
        (tnorm(negated_log()), tconorm(negated_log_complement())),
    ], ids=lambda af: af.name)
    def test_matches_the_all_pairs_scan(self, a, b):
        lo, hi = interval_grid(50)
        w = _grid_tie(a, b, lo, hi)
        assert (None if w is None else (w.u, w.x)) == reference_grid_tie(a, b, lo, hi)

    @settings(max_examples=100, deadline=None)
    @given(builtin_aggregators, builtin_aggregators, st.integers(16, 50))
    def test_matches_the_all_pairs_scan_on_drawn_pairs(self, a, b, resolution):
        lo, hi = interval_grid(resolution)
        w = _grid_tie(a, b, lo, hi)
        assert (None if w is None else (w.u, w.x)) == reference_grid_tie(a, b, lo, hi)

    @pytest.mark.parametrize("a, b, sizes", [
        (exponential_mean(1.0, 0.5), exponential_mean(2.0, 0.5), []),
        (geometric_mean(0.4), exponential_mean(-1.0, 0.4), [57]),
    ], ids=lambda p: getattr(p, "name", str(p)))
    def test_b_is_evaluated_only_where_a_repeats(self, a, b, sizes):
        seen = []

        def values(lo, hi):
            seen.append(lo.size)
            return b._values(lo, hi)

        counted = AggregationFunction(b.name, b.descriptor, values)
        seen.clear()  # the constructor's boundary check
        assert _grid_tie(a, counted, *interval_grid(50)) is None
        assert seen == sizes

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),
                              st.sampled_from([math.nan, -0.0, 0.0, 0.25, 0.5, 1.0])),
                    min_size=2, max_size=40))
    def test_one_complex_sort_gives_the_lexsort_ties(self, values):
        # _grid_tie sorts by A + iB; a NaN B turns the key's real part NaN
        # too, and sorts last, but ties with nothing either way
        va, vb = np.array(values).T

        def tie_pairs(order):
            m, n = order[:-1], order[1:]
            tie = (va[m] == va[n]) & (vb[m] == vb[n])
            return sorted(zip(m[tie].tolist(), n[tie].tolist()))

        assert tie_pairs(np.argsort(va + 1j * vb, kind="stable")) == tie_pairs(
            np.lexsort((vb, va)))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 8), st.lists(st.sampled_from([math.nan, -0.0, 0.0, 0.5, 1.0]),
                                       min_size=1, max_size=7))
    def test_nan_and_signed_zero_b_values(self, steps, choices):
        # A quantised to 1/steps of x2 repeats on most of the grid; B is
        # NaN, -0.0 or 0.0 on many of its intervals
        a = AggregationFunction("steps", object(), lambda lo, hi: np.round(hi * steps) / steps)

        def values(lo, hi):
            pick = np.asarray(choices)[np.rint(lo * 70 + hi * 30).astype(int) % len(choices)]
            return np.where(lo == hi, lo, pick)

        b = AggregationFunction("holey", object(), values)
        lo, hi = interval_grid(20)
        w = _grid_tie(a, b, lo, hi)
        assert (None if w is None else (w.u, w.x)) == reference_grid_tie(a, b, lo, hi)

    def test_pairs_closer_than_witness_gap_are_no_tie(self):
        # the geometric mean is 0 on every interval [0, x2]
        a = geometric_mean(0.5)
        lo = np.array([0.0, 0.0, 0.2])
        near = np.array([0.3, 0.3 + 0.5 * WITNESS_GAP, 0.4])
        assert _grid_tie(a, a, lo, near) is None
        far = np.array([0.3, 0.3 + 2 * WITNESS_GAP, 0.4])
        w = _grid_tie(a, a, lo, far)
        assert (w.u, w.x) == (Interval(0.0, 0.3), Interval(0.0, float(far[1])))
        # a near pair ahead of a far one in the run does not hide it
        w = _grid_tie(a, a, np.zeros(3), np.array([0.3, 0.3 + 0.5 * WITNESS_GAP, 0.5]))
        assert w is not None and w.endpoint_gap >= WITNESS_GAP and w.x == Interval(0.0, 0.5)


class TestLevelBisection:
    """The bisection of the level between two sampled curves along which B
    runs in opposite directions."""

    def scan(self, monkeypatch, first, direction):
        # the full scan finds nothing and gives the curves ``first``
        # directions; each bisected curve gets ``direction(mid)``
        mids = []

        def fake(a, b, x1, levels):
            if levels.size > 1:
                return None, np.array(first, dtype=np.int8)
            mids.append(float(levels[0]))
            return None, np.array([direction(float(levels[0]))], dtype=np.int8)

        monkeypatch.setattr(admissibility, "_scan_levels", fake)
        monkeypatch.setattr(admissibility, "_grid_tie", lambda *args: None)
        assert oracle_search(k_mean(0.3), k_mean(0.7), resolution=50) is None
        return mids

    def test_a_curve_without_one_direction_stops_it(self, monkeypatch):
        first = [1] * 10 + [-1] * 39
        assert self.scan(monkeypatch, first, lambda mid: 0) == [0.5 * (10 / 50 + 11 / 50)]

    def test_it_stops_when_no_float_is_left_between_the_levels(self, monkeypatch):
        # every bisected curve rises like the lower one, so the bracket
        # closes on the upper level
        first = [1] * 10 + [-1] * 39
        mids = self.scan(monkeypatch, first, lambda mid: 1)
        assert mids == sorted(mids) and mids[0] == 0.5 * (10 / 50 + 11 / 50)
        assert 10 / 50 < mids[-1] < 11 / 50
        assert math.nextafter(mids[-1], 1.0) == 11 / 50
        assert len(mids) < 60


@pytest.fixture(scope="module")
def coverage_sweep():
    with open(Path(__file__).with_name("coverage_sweep.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    pairs = sweep_pairs()
    assert len(rows) == len(pairs) == 435
    return list(zip(pairs, rows))


class TestCoverageSweep:
    """The 435 pairs of ``tests/coverage_sweep.py``, against the table its
    writer writes."""

    def test_rules_match_the_table(self, coverage_sweep):
        for (a, b), row in coverage_sweep:
            assert (a.name, b.name) == (row["a"], row["b"])
            v = check_pair(a, b, use_oracle=False)
            assert (v.outcome.value, v.rule) == (row["outcome"], row["rule"]), row

    def test_no_pair_of_two_registered_views_is_unknown(self, coverage_sweep):
        views = 0
        # test_rules_match_the_table holds check_pair to each row
        for (a, b), row in coverage_sweep:
            qa, qb = quasi_view(a), quasi_view(b)
            if qa is None or qb is None:
                continue
            views += 1
            assert _weight_band(qa[0].kind, qa[0].param, qb[0].kind, qb[0].param) is not None
            assert row["outcome"] != Outcome.UNKNOWN.value, row
        assert views == 325

    def test_witness_residuals_follow_the_orientation(self, coverage_sweep):
        # residual_a is A's residual and residual_b B's, whichever
        # orientation of the pair a rule decided
        witnesses = 0
        for (a, b), _ in coverage_sweep:
            for x, y in ((a, b), (b, a)):
                w = check_pair(x, y, use_oracle=False).witness
                if w is None:
                    continue
                witnesses += 1
                again = make_witness(x, y, w.u, w.x, tol=math.inf)
                assert (again.residual_a, again.residual_b) == (w.residual_a, w.residual_b), (
                    x.name, y.name)
        assert witnesses == 418

    def test_oracle_witnesses_match_the_pinned_table(self, coverage_sweep):
        # sweep_oracle_witnesses.csv pins the float.hex of every pair's R = 100
        # witness in both orientations, empty where there is none
        with open(Path(__file__).with_name("sweep_oracle_witnesses.csv"), newline="") as fh:
            header, *pinned = csv.reader(fh)
        assert tuple(header) == sweep_oracle_witnesses.FIELDS
        rows = sweep_oracle_witnesses.witness_rows()
        assert len(rows) == len(pinned) == 2 * len(coverage_sweep)
        for got, want in zip(rows, pinned):
            assert got == want
        found = [row[3] != "" for row in rows if row[2] == "ab"]
        assert found == [row["oracle_100"] == "1" for _, row in coverage_sweep]
        assert sum(row[3] != "" for row in rows) == 407

    @pytest.mark.parametrize("resolution", [100, 200])
    def test_every_collision_found_before_is_found(self, coverage_sweep, resolution):
        for (a, b), row in coverage_sweep:
            found = oracle_search(a, b, resolution=resolution)
            if row[f"oracle_{resolution}"] == "1":
                assert found is not None, row
            if row["outcome"] == Outcome.ADMISSIBLE.value:
                assert found is None, row
            if found is not None:
                assert make_witness(a, b, *found, ORACLE_CONFIRM) is not None, row


def without_registry_row(af):
    """``af`` rebuilt on its generator stripped of ``kind`` and ``param``, so
    the closed-form registry has no row for it; a projection K_w, which has
    no generator, comes back as it is."""
    d = af.descriptor

    def bare(g):
        return dataclasses.replace(g, kind=None, param=None)

    if isinstance(d, QuasiLinear):
        return quasi_linear_mean(bare(d.generator), d.weight)
    if isinstance(d, SchurPair):
        return schur_pair_mean(bare(d.f))
    if isinstance(d, TNorm):
        return tnorm(bare(d.generator))
    if isinstance(d, TConorm):
        return tconorm(bare(d.generator))
    return af


class TestSweepWithoutRegistryRows:
    """The coverage sweep on generators without a registry row: the rules
    may leave a pair UNKNOWN that the table decides, but never contradict
    the table, never claim a shape and never exclude without a witness."""

    SHAPE_RULES = {"equal-weights-shape", "pair-mean-shape", "strict-archimedean-shape",
                   "weight-order-shape"}

    def test_rules_lose_verdicts_only(self, coverage_sweep):
        for (a, b), row in coverage_sweep:
            a, b = without_registry_row(a), without_registry_row(b)
            v = check_pair(a, b, use_oracle=False)
            assert v.outcome.value in (row["outcome"], Outcome.UNKNOWN.value), row
            assert not (v.outcome is Outcome.ADMISSIBLE and v.rule in self.SHAPE_RULES), row
            if v.outcome is Outcome.NOT_ADMISSIBLE:
                w = v.witness
                assert w is not None and make_witness(a, b, w.u, w.x) is not None, row


def reference_level_roots(bs):
    """:func:`_level_roots` one row and one sample at a time."""
    roots = []
    for r, row in enumerate(bs.tolist()):
        for k in range(len(row) - 1):
            if row[k] == row[k + 1]:
                roots.append((r, k, k + 1, k + 1))
            if k + 2 < len(row):
                lead, turn, trail = row[k:k + 3]
                tol_rise = TURN_TOL * max(1.0, abs(lead), abs(turn))
                tol_fall = TURN_TOL * max(1.0, abs(turn), abs(trail))
                rise, fall = turn - lead, trail - turn
                if ((rise > tol_rise and fall < -tol_fall)
                        or (rise < -tol_rise and fall > tol_fall)):
                    # B is nearer the turning value at the higher neighbour
                    # of a peak and at the lower neighbour of a trough
                    if (lead >= trail) if rise > 0 else (lead <= trail):
                        roots.append((r, k, k + 1, k + 2))
                    else:
                        roots.append((r, k + 2, k, k + 1))
    return roots


def cell_roots(bs, cells):
    """:func:`_level_roots` on the ``cells`` of the table ``bs``, as (row,
    u, first, last) in the table's indices."""
    row, k = np.nonzero(cells)
    u, first, last = _level_roots(bs[cells], *_steps(row, k, bs[cells]))
    assert (row[u] == row[first]).all() and (row[u] == row[last]).all()
    return list(zip(row[u].tolist(), k[u].tolist(), k[first].tolist(), k[last].tolist()))


def level_roots(bs):
    """The roots of a table of B along level curves, NaN where a curve has
    no point: the same whether every entry is a cell, NaN B included, or
    the NaN entries are no cells at all, and the same as the dense scan's."""
    bs = np.array(bs, dtype=float)
    roots = cell_roots(bs, np.ones(bs.shape, dtype=bool))
    assert cell_roots(bs, ~np.isnan(bs)) == roots
    dense = level_reference.reference_level_roots(bs, level_reference.reference_steps(bs))
    assert list(zip(*(v.tolist() for v in dense))) == roots
    return roots


# B along a synthetic level curve: values that make exact ties, steps of
# exactly, just under and just over TURN_TOL, and NaN holes common
curve_value = st.one_of(
    st.sampled_from([0.0, TURN_TOL, -TURN_TOL, 2 * TURN_TOL, 0.5, 0.5 + 1e-12, 1.0, math.nan]),
    st.floats(min_value=-1e3, max_value=1e3))
curves = st.integers(2, 8).flatmap(
    lambda n: st.lists(st.lists(curve_value, min_size=n, max_size=n), min_size=1, max_size=5))


class TestLevelScan:
    """The roots :func:`_level_roots` picks on synthetic level curves."""

    def test_exact_ties(self):
        assert level_roots([[0.3, 0.3, 0.3, 0.4]]) == [(0, 0, 1, 1), (0, 1, 2, 2)]

    @pytest.mark.parametrize("curve, root", [
        ([0.1, 0.5, 0.2], (0, 2, 0, 1)),  # the trailing neighbour is nearer the peak
        ([0.2, 0.5, 0.1], (0, 0, 1, 2)),  # the leading one is
        ([0.2, 0.5, 0.2], (0, 0, 1, 2)),  # both are as near: the leading one
        ([0.9, 0.5, 0.8], (0, 2, 0, 1)),  # a trough
        ([0.6, 0.5, 0.8], (0, 0, 1, 2)),
    ])
    def test_u_is_the_neighbour_nearer_the_turning_value(self, curve, root):
        assert level_roots([curve]) == [root]
        _, u, first, last = root
        # the far step brackets B = B(u)
        assert (curve[first] - curve[u]) * (curve[last] - curve[u]) <= 0

    def test_nan_holes(self):
        nan = math.nan
        assert level_roots([[nan, nan, nan]]) == []
        assert level_roots([[0.1, nan, 0.1, 0.5, 0.1]]) == [(0, 2, 3, 4)]
        assert level_roots([[0.1, 0.5, nan, 0.5, 0.1]]) == []
        assert level_roots([[0.4, 0.4, nan, 0.4]]) == [(0, 0, 1, 1)]

    def test_a_step_of_exactly_turn_tol_does_not_count(self):
        over = math.nextafter(TURN_TOL, 1.0)
        assert level_roots([[0.0, TURN_TOL, 0.0]]) == []
        assert level_roots([[TURN_TOL, 0.0, TURN_TOL]]) == []
        assert level_roots([[0.0, TURN_TOL, -over]]) == []
        assert level_roots([[0.0, over, 0.0]]) == [(0, 0, 1, 2)]
        assert level_roots([[over, 0.0, TURN_TOL]]) == []
        # the tolerance grows with |B| beyond 1
        assert level_roots([[1e3, 1e3 + 5e-10, 1e3]]) == []
        assert level_roots([[1e3, 1e3 + 2e-9, 1e3]]) == [(0, 0, 1, 2)]

    def test_try_order(self):
        curves = [[0.1, 0.5, 0.2, 0.2, 0.2, 0.9, 0.3], [0.7, 0.7, 0.1] + [math.nan] * 4]
        assert level_roots(curves) == [
            (0, 2, 0, 1), (0, 2, 3, 3), (0, 3, 4, 4), (0, 6, 4, 5), (1, 0, 1, 1)]

    def test_a_gap_inside_a_level(self):
        # a missing cell splits a level's run like a NaN hole
        nan = math.nan
        assert level_roots([[0.1, 0.5, nan, 0.5, 0.1, 0.5]]) == [(0, 3, 4, 5)]
        assert level_roots([[0.3, nan, 0.3, 0.3]]) == [(0, 2, 3, 3)]

    def test_cells_of_two_levels_at_consecutive_x1_are_no_neighbours(self):
        # level 0 ends at x1 index 2 and level 1 starts at index 3: equal B
        # and a rise then a fall across the two make no root
        nan = math.nan
        assert level_roots([[0.1, 0.2, 0.3, nan, nan], [nan, nan, nan, 0.3, 0.1]]) == []
        assert level_roots([[0.1, 0.2, nan], [nan, nan, 0.1]]) == []

    def test_a_rootless_table_gives_empty_index_arrays(self):
        nan = math.nan
        bs = np.array([[0.1, 0.2, 0.3], [0.9, 0.5, nan], [nan, nan, nan]])
        cells = ~np.isnan(bs)
        roots = _level_roots(bs[cells], *_steps(*np.nonzero(cells), bs[cells]))
        assert len(roots) == 3
        assert all(r.dtype == np.intp and r.size == 0 for r in roots)
        empty = np.zeros(0, dtype=np.intp)
        roots = _level_roots(np.zeros(0), *_steps(empty, empty, np.zeros(0)))
        assert all(r.dtype == np.intp and r.size == 0 for r in roots)

    def test_a_rootless_scan_keeps_each_curves_direction(self, monkeypatch):
        # B rises along every level curve of A: no root, and direction 1
        found = []

        def record(bs, adjacent, steps):
            found.append(_level_roots(bs, adjacent, steps))
            return found[-1]

        monkeypatch.setattr(admissibility, "_level_roots", record)
        _, _, x1, levels = _oracle_layout(50)
        w, direction = _scan_levels(root_power_mean(3.0, 0.9), root_power_mean(3.0, 0.4),
                                    x1, levels)
        assert w is None and direction.tolist() == [1] * 49
        (roots,) = found
        assert all(r.dtype == np.intp and r.size == 0 for r in roots)

    def test_a_direction_flip_between_levels_is_bisected(self):
        # B turns along A's level curve only for 0.6181 < c < 0.6224, which
        # no level j/120 meets: B falls along the curve at 74/120 and rises
        # along it at 75/120
        a, b = logit_mean(0.5), exponential_mean(1.0, 0.5)
        x1 = 0.5 - 0.5 * np.cos(np.linspace(0.0, np.pi, 120))
        w, direction = _scan_levels(a, b, x1, np.array([74, 75]) / 120)
        assert w is None and direction.tolist() == [-1, 1]
        u, x = oracle_search(a, b, resolution=120)
        assert 74 / 120 < a(u) < 75 / 120
        assert make_witness(a, b, u, x, ORACLE_CONFIRM) is not None

    @settings(max_examples=400, deadline=None)
    @given(curves)
    def test_matches_the_per_sample_loop(self, drawn):
        bs = np.array(drawn, dtype=float)
        roots = level_roots(bs)
        assert roots == reference_level_roots(bs)
        for r, u, first, last in roots:
            assert last == first + 1 or first == last
            if first == last:
                assert bs[r, u] == bs[r, first] and last == u + 1
            else:
                turn = first if u == first - 1 else last
                peak = bs[r, turn] > bs[r, u]
                assert (bs[r, u] >= bs[r, 2 * turn - u]) if peak else (bs[r, u] <= bs[r, 2 * turn - u])
                assert (bs[r, first] - bs[r, u]) * (bs[r, last] - bs[r, u]) <= 0


def scans_agree(a, b, x1, levels):
    """Run the cell scan and the dense reference scan of
    ``level_reference`` on the same curves: the same witness, bit for bit,
    the same directions, and the same roots tried in the same order, both
    up to the first accepted root and, with every root declined, in full.
    Returns the witness and the number of roots the full scan tries."""
    accept = admissibility._level_curve_witness
    runs = []
    for decide in (accept, lambda *args: None):
        for scan in (_scan_levels, level_reference.reference_scan_levels):
            tried = []

            def record(*args):
                tried.append(args[2:])
                return decide(*args)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(admissibility, "_level_curve_witness", record)
                w, direction = scan(a, b, x1, levels)
            assert direction.dtype == np.int8
            bits = None if w is None else [float(t).hex() for t in (
                w.u.lo, w.u.hi, w.x.lo, w.x.hi, w.residual_a, w.residual_b)]
            runs.append((bits, direction.tolist(), repr(tried)))
    assert runs[0] == runs[1] and runs[2] == runs[3]
    assert runs[2][0] is None and runs[2][1] == runs[0][1]
    return (None if runs[0][0] is None else _scan_levels(a, b, x1, levels)[0]), len(tried)


def with_values(af, name, values):
    """``af``'s descriptor, closed form included, on other values."""
    return AggregationFunction(name, af.descriptor, values)


class TestCellScan:
    """The scan over bracketed cells against the dense (level, x1) scan it
    replaced."""

    @settings(max_examples=40, deadline=None)
    @given(builtin_aggregators, builtin_aggregators, st.sampled_from([50, 60, 100]))
    def test_matches_the_dense_scan_on_drawn_pairs(self, a, b, resolution):
        _, _, x1, levels = _oracle_layout(resolution)
        scans_agree(a, b, x1, levels)

    @pytest.mark.parametrize("a, b", [
        # K_0 has no closed form: every bracketed cell is bisected
        (k_mean(0.0), exponential_mean(-1.0, 0.5)),
        (k_mean(0.0), root_power_mean(2.0, 0.3)),
        # log and logit means: A([0, x2]) = 0, the curves meet x1 = 0
        (geometric_mean(0.5), exponential_mean(1.0, 0.5)),
        (logit_mean(0.5), exponential_mean(1.0, 0.5)),
        (logit_mean(0.3), geometric_mean(0.6)),
        (k_mean(0.3), exponential_mean(-1.0, 0.5)),
        (root_power_mean(3.0, 0.9), root_power_mean(3.0, 0.4)),
    ], ids=lambda af: af.name)
    @pytest.mark.parametrize("resolution", [50, 60, 100])
    def test_matches_the_dense_scan(self, a, b, resolution):
        _, _, x1, levels = _oracle_layout(resolution)
        scans_agree(a, b, x1, levels)
        scans_agree(b, a, x1, levels)

    @pytest.mark.parametrize("a, b", [
        (logit_mean(0.3), geometric_mean(0.6)),
        (k_mean(0.3), exponential_mean(-1.0, 0.5)),
        (root_power_mean(3.0, 0.9), root_power_mean(3.0, 0.4)),
    ], ids=lambda af: af.name)
    def test_matches_the_dense_scan_without_closed_form(self, a, b):
        # every bracketed cell of a descriptor without solve_hi is bisected
        _, _, x1, levels = _oracle_layout(50)
        scans_agree(_without_closed_form(a), b, x1, levels)

    def test_k0_cells_just_above_their_diagonal_are_bisected(self, monkeypatch):
        # K_0([x1, x2]) = x1: the level 0.3 is bracketed at x1 within 1e-13
        # of it, and below 0.3 only bisection has an x2 for it
        a, b = k_mean(0.0), exponential_mean(-1.0, 0.5)
        x1 = np.array([0.3 - 1e-13, 0.3 - 5e-14, 0.3, 0.3 + 5e-14, 0.5])
        levels = np.array([0.3, 0.5])
        calls = []
        bisect = admissibility._bisect_hi
        monkeypatch.setattr(admissibility, "_bisect_hi",
                            lambda a, x1s, target: calls.append(x1s.size) or bisect(a, x1s, target))
        _scan_levels(a, b, x1, levels)
        assert calls == [2]
        monkeypatch.undo()
        scans_agree(a, b, x1, levels)
        scans_agree(b, a, x1, levels)

    def test_levels_without_cells(self):
        # A([x1, x2]) = (x1 + x2) / 2 >= 0.8 on x1 >= 0.8: no cell below 0.8
        a, b = k_mean(0.5), exponential_mean(-1.0, 0.5)
        x1 = np.linspace(0.8, 1.0, 9)
        levels = np.array([0.1, 0.5, 0.85, 0.9, 0.95])
        (row, _), _ = admissibility._level_hi(a, x1, levels[:, None])
        assert np.bincount(row, minlength=levels.size).tolist()[:2] == [0, 0]
        w, _ = scans_agree(a, b, x1, levels)
        assert _scan_levels(a, b, x1, np.array([0.1, 0.2]))[1].tolist() == [0, 0]
        assert _scan_levels(a, b, x1, np.zeros(0))[1].size == 0

    @settings(max_examples=40, deadline=None)
    @given(builtin_aggregators, builtin_aggregators,
           st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3), st.floats(0.0, 1.0))
    def test_one_level_at_three_x1(self, a, b, x1, frac):
        # the call _band_witness makes: [lo, x1, hi] on one level
        x1 = np.sort(np.array(x1))
        level = a(Interval(x1[1], x1[1] + frac * (1.0 - x1[1])))
        scans_agree(a, b, x1, np.array([level]))

    @pytest.mark.parametrize("resolution", [50, 100])
    def test_nan_b_inside_bracketed_cells(self, resolution):
        # B is NaN on a band of x2 that crosses every level curve
        a = k_mean(0.3)
        for base in (exponential_mean(-1.0, 0.5), root_power_mean(3.0, 0.4), k_mean(0.7)):
            def values(lo, hi, base=base):
                return np.where((hi > 0.4) & (hi < 0.6), np.nan, base._values(lo, hi))

            b = with_values(base, f"holey {base.name}", values)
            _, _, x1, levels = _oracle_layout(resolution)
            (_, k), x2s = admissibility._level_hi(a, x1, levels[:, None])
            assert np.isnan(b.values(x1[k], x2s)).sum() > 50
            scans_agree(a, b, x1, levels)
            scans_agree(b, a, x1, levels)

    @pytest.mark.parametrize("b", [exponential_mean(-1.0, 0.5), root_power_mean(3.0, 0.4),
                                   k_mean(0.3)], ids=lambda af: af.name)
    def test_a_gap_in_the_bracket_mask_inside_a_level(self, b):
        # A([x1, 1]) drops to x1 for 0.3 < x1 < 0.35, so levels above x1
        # lose their cells there, and their runs split in two
        base = exponential_mean(1.0, 0.5)

        def values(lo, hi):
            dip = (hi == 1.0) & (lo > 0.3) & (lo < 0.35)
            return np.where(dip, lo, base._values(lo, hi))

        a = with_values(base, "dipped", values)
        _, _, x1, levels = _oracle_layout(100)
        (row, k), _ = admissibility._level_hi(a, x1, levels[:, None])
        # a run starts at each cell that does not follow its neighbour
        starts = np.r_[True, (row[1:] != row[:-1]) | (k[1:] != k[:-1] + 1)]
        assert np.bincount(row[starts]).max() == 2
        scans_agree(a, b, x1, levels)
        scans_agree(b, a, x1, levels)


class TestOracleMemory:
    @pytest.mark.parametrize("label, found", [
        ("projection(0.5) vs projection(0.5)", (Interval(0.0, 0.01), Interval(0.005, 0.005))),
        ("Lukasiewicz t-norm vs bounded sum", (Interval(0.0, 0.01), Interval(0.005, 0.005))),
        # no collision: every level curve is sampled
        ("root-power(3, w=0.9) vs root-power(3, w=0.4)", None),
    ])
    def test_peak_at_resolution_200(self, label, found):
        case = next(c for c in build_battery() if c.label == label)
        tracemalloc.start()
        try:
            got = oracle_search(case.a, case.b, resolution=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == found
        assert peak <= 8 * 2**20


# The weight-order table for distinct weights: the composite's convexity and
# direction (INC when it increases), whether f increases and whether w1 <
# w2, and whether every such weight pair is admissible.  An affine
# composite is convex and concave at once.  The weight band gives the same
# answers: it is one-sided exactly for a strict or affine composite.
CONVEX, AFFINE, CONCAVE = (Convexity.STRICTLY_CONVEX, Convexity.AFFINE,
                           Convexity.STRICTLY_CONCAVE)
MIXED, UNKNOWN = Convexity.MIXED, Convexity.UNKNOWN
INC, DEC = True, False
WEIGHT_ORDER_TABLE = [
    # convexity, composite rising, f increasing, w1 < w2, admissible
    (CONVEX, INC, True, True, True),
    (CONVEX, INC, True, False, False),
    (CONVEX, INC, False, True, False),
    (CONVEX, INC, False, False, True),
    (CONVEX, DEC, True, True, False),
    (CONVEX, DEC, True, False, True),
    (CONVEX, DEC, False, True, True),
    (CONVEX, DEC, False, False, False),
    (AFFINE, INC, True, True, True),
    (AFFINE, INC, True, False, True),
    (AFFINE, INC, False, True, True),
    (AFFINE, INC, False, False, True),
    (AFFINE, DEC, True, True, True),
    (AFFINE, DEC, True, False, True),
    (AFFINE, DEC, False, True, True),
    (AFFINE, DEC, False, False, True),
    (CONCAVE, INC, True, True, False),
    (CONCAVE, INC, True, False, True),
    (CONCAVE, INC, False, True, True),
    (CONCAVE, INC, False, False, False),
    (CONCAVE, DEC, True, True, True),
    (CONCAVE, DEC, True, False, False),
    (CONCAVE, DEC, False, True, False),
    (CONCAVE, DEC, False, False, True),
    (MIXED, INC, True, True, False),
    (MIXED, INC, True, False, False),
    (MIXED, INC, False, True, False),
    (MIXED, INC, False, False, False),
    (MIXED, DEC, True, True, False),
    (MIXED, DEC, True, False, False),
    (MIXED, DEC, False, True, False),
    (MIXED, DEC, False, False, False),
    (UNKNOWN, INC, True, True, False),
    (UNKNOWN, INC, True, False, False),
    (UNKNOWN, INC, False, True, False),
    (UNKNOWN, INC, False, False, False),
    (UNKNOWN, DEC, True, True, False),
    (UNKNOWN, DEC, True, False, False),
    (UNKNOWN, DEC, False, True, False),
    (UNKNOWN, DEC, False, False, False),
]


TABLE_GENERATORS = [
    power(2.0), power(0.5), power(-1.0), power(-2.0), exponential(1.0), exponential(-1.0),
    exponential(2.0), exponential(-2.0), logarithm(), logit(), negated_log(),
    negated_log_complement(), one_minus(), identity(),
]


def table_realisers(convexity, rising, f_increasing):
    """The builtin pairs (f, g) whose composite has ``convexity`` and rises
    when ``rising``, with f running as ``f_increasing`` says; pairs whose
    generators are infinite at the same end are left to the saturation
    rules."""
    return [(f, g) for f in TABLE_GENERATORS for g in TABLE_GENERATORS
            if f.increasing == f_increasing and (f.increasing == g.increasing) == rising
            and registry_composite_shape(f, g).convexity is convexity
            and not (math.isinf(f.at_zero) and math.isinf(g.at_zero))
            and not (math.isinf(f.at_one) and math.isinf(g.at_one))]


class TestWeightOrderTable:
    @pytest.mark.parametrize("convexity, rising, f_increasing, w1_below, admissible",
                             WEIGHT_ORDER_TABLE)
    def test_row(self, convexity, rising, f_increasing, w1_below, admissible):
        pairs = table_realisers(convexity, rising, f_increasing)
        # the registry certifies every class but UNKNOWN
        assert (pairs == []) == (convexity is UNKNOWN)
        w1, w2 = (0.3, 0.6) if w1_below else (0.6, 0.3)
        for f, g in pairs:
            assert admissible_for_all_weight_orders(
                f, g, increasing_weights=w1_below) is admissible, (f.name, g.name)
            if admissible:
                v = rule_quasi_linear(quasi_linear_mean(f, w1), quasi_linear_mean(g, w2))
                assert (v.outcome, v.rule) == (Outcome.ADMISSIBLE, "weight-order-shape")


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
