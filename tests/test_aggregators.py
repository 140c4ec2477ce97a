import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from intervalorders import (
    AggregationError,
    AggregationFunction,
    Generator,
    Interval,
    aggregator_from_config,
    exponential,
    exponential_mean,
    geometric_mean,
    identity,
    k_mean,
    logarithm,
    logit,
    logit_mean,
    negated_log,
    negated_log_complement,
    one_minus,
    power,
    quasi_linear_mean,
    root_power_mean,
    schur_pair_mean,
    tconorm,
    tnorm,
)
from intervalorders.admissibility import (
    _bisect_hi,
    _level_hi,
    _nilpotent_square,
    is_conjunctive,
    is_disjunctive,
)
import nilpotent_witnesses
from level_reference import reference_level_hi

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
weight = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)

REPRESENTATIVES = [
    root_power_mean(2.0, 0.3),
    root_power_mean(-1.0, 0.7),
    exponential_mean(1.5, 0.5),
    geometric_mean(0.4),
    logit_mean(0.6),
    k_mean(0.0),
    k_mean(0.5),
    k_mean(1.0),
    schur_pair_mean(power(2.0)),
    schur_pair_mean(power(0.5)),
    tnorm(negated_log()),
    tnorm(one_minus()),
    tconorm(negated_log_complement()),
    tconorm(identity()),
]


class TestContract:
    @pytest.mark.parametrize("af", REPRESENTATIVES, ids=lambda a: a.name)
    def test_boundary_and_monotonicity_on_grid(self, af):
        assert af(Interval(0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)
        assert af(Interval(1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)
        # componentwise monotonicity over the full 101 x 101 endpoint grid:
        # nondecreasing along both coordinate directions implies it for every
        # dominated pair
        pts = np.linspace(0.0, 1.0, 101)
        lo_m, hi_m = np.meshgrid(pts, pts, indexing="ij")
        valid = lo_m <= hi_m
        vals = af.values(lo_m.ravel(), hi_m.ravel()).reshape(lo_m.shape)
        d_lo = vals[1:, :] - vals[:-1, :]
        ok_lo = valid[1:, :] & valid[:-1, :]
        assert np.all(d_lo[ok_lo] >= -1e-12)
        d_hi = vals[:, 1:] - vals[:, :-1]
        ok_hi = valid[:, 1:] & valid[:, :-1]
        assert np.all(d_hi[ok_hi] >= -1e-12)

    def test_rejects_wrong_boundary_values(self):
        with pytest.raises(AggregationError) as err:
            AggregationFunction("shifted", object(), lambda lo, hi: 0.25 * (lo + hi) + 0.25)
        assert str(err.value) == "shifted: boundary conditions failed: A([0,0])=0.25, A([1,1])=0.75"

    @pytest.mark.parametrize("af", REPRESENTATIVES, ids=lambda a: a.name)
    def test_values_inside_unit_range(self, af):
        los, his = np.meshgrid(np.linspace(0, 1, 21), np.linspace(0, 1, 21))
        mask = los <= his
        vals = af.values(los[mask], his[mask])
        assert np.all(np.isfinite(vals))
        assert np.all((vals >= 0.0) & (vals <= 1.0))


class TestQuasiLinear:
    def test_root_power_matches_direct_formula(self):
        w, gamma = 0.35, 2.5
        af = root_power_mean(gamma, w)
        los = np.array([0.0, 0.1, 0.4, 0.8])
        his = np.array([0.5, 0.9, 0.4, 1.0])
        direct = ((1 - w) * los**gamma + w * his**gamma) ** (1 / gamma)
        assert np.allclose(af.values(los, his), direct, atol=1e-12)

    def test_negative_power_sends_zero_interval_to_zero(self):
        af = root_power_mean(-1.0, 0.4)
        assert af(Interval(0.0, 0.7)) == 0.0

    def test_identity_generator_is_projection(self):
        af = quasi_linear_mean(identity(), 0.3)
        km = k_mean(0.3)
        los = np.linspace(0, 1, 17)
        his = np.clip(los + 0.2, 0, 1)
        assert np.allclose(af.values(los, his), km.values(los, his), atol=1e-15)

    def test_geometric_mean_exponent_convention(self):
        # the log generator yields u1^(1-w) * u2^w
        af = geometric_mean(0.3)
        u = Interval(0.4, 0.9)
        assert af(u) == pytest.approx(0.4**0.7 * 0.9**0.3, abs=1e-12)

    def test_geometric_mean_zero_absorbing(self):
        # f(0) = -inf forces the whole mean to 0 on [0, x]
        af = geometric_mean(0.5)
        assert af(Interval(0.0, 0.5)) == 0.0
        assert af(Interval(0.0, 1.0)) == 0.0

    def test_logit_mean_matches_odds_formula(self):
        w = 0.4
        af = logit_mean(w)
        for lo, hi in [(0.2, 0.7), (0.05, 0.95), (0.5, 0.5)]:
            num = lo ** (1 - w) * hi**w
            den = num + (1 - lo) ** (1 - w) * (1 - hi) ** w
            assert af(Interval(lo, hi)) == pytest.approx(num / den, abs=1e-12)

    def test_logit_mean_zero_over_zero_convention(self):
        af = logit_mean(0.4)
        assert af(Interval(0.0, 1.0)) == 0.0
        assert af(Interval(0.0, 0.3)) == 0.0
        assert af(Interval(0.6, 1.0)) == 1.0

    def test_exponential_mean_closed_form(self):
        gamma, w = 1.5, 0.25
        af = exponential_mean(gamma, w)
        u = Interval(0.2, 0.8)
        expected = math.log((1 - w) * math.exp(gamma * 0.2) + w * math.exp(gamma * 0.8)) / gamma
        assert af(u) == pytest.approx(expected, abs=1e-12)

    def test_rejects_degenerate_weight(self):
        with pytest.raises(AggregationError):
            quasi_linear_mean(identity(), 0.0)
        with pytest.raises(AggregationError):
            quasi_linear_mean(identity(), 1.0)

    @given(weight, unit)
    def test_idempotent_on_degenerate_intervals(self, w, a):
        af = root_power_mean(2.0, w)
        assert af(Interval(a, a)) == pytest.approx(a, abs=1e-9)

    @given(weight, unit, unit)
    def test_internality(self, w, a, b):
        lo, hi = min(a, b), max(a, b)
        af = exponential_mean(1.0, w)
        v = af(Interval(lo, hi))
        assert lo - 1e-9 <= v <= hi + 1e-9


def reference_quasi_values(gen, w, lo, hi):
    """M_{f,w} on endpoint arrays with every masking pass on every call: the
    formula ``quasi_linear_mean`` evaluated before it skipped the passes
    that cannot change its result."""
    ends = {gen.at_zero: 0.0, gen.at_one: 1.0}  # the x in {0, 1} at each generator end
    neg_end, pos_end = ends.get(-math.inf), ends.get(math.inf)
    with np.errstate(all="ignore"):
        a = np.asarray(gen.fn(lo), dtype=float)
        b = np.asarray(gen.fn(hi), dtype=float)
        s = (1.0 - w) * a + w * b
        s = np.where(np.isneginf(a) | np.isneginf(b), -math.inf, s)
        finite = np.isfinite(s)
        core = np.asarray(gen.inv(np.where(finite, s, 0.5)), dtype=float)
        out = np.where(finite, core, 0.0)
        if neg_end is not None:
            out = np.where(np.isneginf(s), neg_end, out)
        if pos_end is not None:
            out = np.where(np.isposinf(s), pos_end, out)
    return out


QUASI_GENERATORS = [power(2.0), power(0.5), power(-1.0), exponential(1.5), exponential(-2.0),
                    logarithm(), logit(), negated_log(), negated_log_complement(),
                    identity(), one_minus()]
# the endpoints, where generators can be infinite, NaN and values just inside
QUASI_EDGES = [0.0, -0.0, 1.0, math.nan, 5e-324, 1.0 - 2.0**-53, 0.3, 0.65]


class TestQuasiLinearValuesMatchFullFormula:
    """``values`` skips the -inf pass without a -inf generator end and the
    masking passes when every s is finite; the bits stay those of the full
    formula."""

    @staticmethod
    def assert_same_bits(gen, w, lo, hi):
        got = quasi_linear_mean(gen, w)._values(lo, hi)
        want = reference_quasi_values(gen, w, lo, hi)
        assert type(got) is type(want) and got.shape == want.shape
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))

    @pytest.mark.parametrize("gen", QUASI_GENERATORS, ids=lambda g: g.name)
    def test_edges(self, gen):
        lo, hi = (np.array(v) for v in zip(*itertools.product(QUASI_EDGES, repeat=2)))
        for w in (0.3, 0.5):
            self.assert_same_bits(gen, w, lo, hi)
            self.assert_same_bits(gen, w, lo[-4:], hi[-4:])  # inside (0, 1) only
            for x, y in zip(lo.tolist(), hi.tolist()):
                self.assert_same_bits(gen, w, np.asarray(x), np.asarray(y))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(QUASI_GENERATORS), weight,
           st.lists(st.tuples(st.one_of(unit, st.sampled_from(QUASI_EDGES)), unit),
                    min_size=1, max_size=24))
    def test_draws(self, gen, w, ends):
        lo, hi = (np.array(v) for v in zip(*ends))
        self.assert_same_bits(gen, w, lo, hi)


class TestSchurPairMean:
    def test_square_values(self):
        af = schur_pair_mean(power(2.0))
        assert af(Interval(0.36, 0.82)) == pytest.approx(0.401, abs=1e-12)

    def test_identity_is_midpoint(self):
        af = schur_pair_mean(identity())
        km = k_mean(0.5)
        for lo, hi in [(0.1, 0.9), (0.3, 0.3), (0.0, 1.0)]:
            assert af(Interval(lo, hi)) == pytest.approx(km(Interval(lo, hi)), abs=1e-15)

    def test_sqrt_value(self):
        af = schur_pair_mean(power(0.5))
        assert af(Interval(0.25, 0.81)) == pytest.approx(0.70, abs=1e-12)

    def test_rejects_non_bijection(self):
        with pytest.raises(AggregationError):
            schur_pair_mean(exponential(1.0))  # f(0) = 1 != 0
        with pytest.raises(AggregationError):
            schur_pair_mean(one_minus())  # decreasing


class TestArchimedean:
    def test_product_from_negated_log(self):
        t = negated_log()
        for lo, hi in [(0.3, 0.8), (0.5, 0.5), (0.0, 0.7), (1.0, 1.0)]:
            assert tnorm(t)(Interval(lo, hi)) == pytest.approx(lo * hi, abs=1e-12)

    def test_lukasiewicz_from_one_minus(self):
        t = one_minus()
        for lo, hi in [(0.3, 0.8), (0.25, 0.25), (0.7, 0.9), (0.0, 1.0)]:
            assert tnorm(t)(Interval(lo, hi)) == pytest.approx(
                max(lo + hi - 1.0, 0.0), abs=1e-12
            )

    def test_tnorm_boundary(self):
        af = tnorm(negated_log())
        assert af(Interval(1.0, 1.0)) == 1.0
        assert af(Interval(0.0, 0.6)) == 0.0

    def test_probabilistic_sum(self):
        s = negated_log_complement()
        for lo, hi in [(0.3, 0.8), (0.5, 0.5), (0.2, 1.0)]:
            assert tconorm(s)(Interval(lo, hi)) == pytest.approx(
                lo + hi - lo * hi, abs=1e-12
            )

    def test_bounded_sum_from_identity(self):
        s = identity()
        for lo, hi in [(0.3, 0.8), (0.4999, 0.5), (0.7, 0.9)]:
            assert tconorm(s)(Interval(lo, hi)) == pytest.approx(
                min(lo + hi, 1.0), abs=1e-12
            )

    def test_tconorm_boundary(self):
        af = tconorm(identity())
        assert af(Interval(0.0, 0.0)) == 0.0
        assert af(Interval(0.4, 1.0)) == 1.0

    def test_tnorm_below_min_tconorm_above_max(self):
        t = tnorm(negated_log())
        s = tconorm(negated_log_complement())
        los, his = np.meshgrid(np.linspace(0, 1, 21), np.linspace(0, 1, 21))
        mask = los <= his
        lo, hi = los[mask], his[mask]
        assert np.all(t.values(lo, hi) <= lo + 1e-12)
        assert np.all(s.values(lo, hi) >= hi - 1e-12)

    def test_strict_tnorm_strictly_shrinks_diagonal(self):
        af = tnorm(negated_log())
        for x in np.linspace(0.05, 0.95, 10):
            assert af(Interval(x, x)) < x

    def test_strictness_classification(self):
        assert tnorm(negated_log()).descriptor.is_strict
        assert not tnorm(one_minus()).descriptor.is_strict
        assert tconorm(negated_log_complement()).descriptor.is_strict
        assert not tconorm(identity()).descriptor.is_strict

    def test_rejects_wrong_direction(self):
        with pytest.raises(AggregationError):
            tnorm(identity())
        with pytest.raises(AggregationError):
            tconorm(negated_log())

    def test_rejects_a_generator_that_declares_its_far_end_non_positive(self):
        # strictly monotone on (0,1) with the right value at the near end,
        # but declared 0 at the far end as well
        down = Generator(name="down", fn=lambda x: 1.0 - np.asarray(x, float),
                         inv=lambda y: 1.0 - np.asarray(y, float),
                         increasing=False, at_zero=0.0, at_one=0.0)
        up = Generator(name="up", fn=lambda x: np.asarray(x, float),
                       inv=lambda y: np.asarray(y, float),
                       increasing=True, at_zero=0.0, at_one=0.0)
        with pytest.raises(AggregationError) as err:
            tnorm(down)
        assert str(err.value) == "down: a t-norm generator needs t(0) > 0"
        with pytest.raises(AggregationError) as err:
            tconorm(up)
        assert str(err.value) == "up: a t-conorm generator needs s(1) > 0"


class TestConfig:
    def test_each_family(self):
        specs = [
            {"family": "quasi_linear", "generator": {"kind": "power", "gamma": 2.0},
             "weight": 0.5},
            {"family": "schur_pair", "f": {"kind": "power", "gamma": 2.0}},
            {"family": "tnorm", "generator": {"kind": "negated_log"}},
            {"family": "tconorm", "generator": {"kind": "negated_log_complement"}},
            {"family": "k", "w": 0.5},
        ]
        for spec in specs:
            af = aggregator_from_config(spec)
            assert af(Interval(1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_family_diagnostic(self):
        with pytest.raises(AggregationError, match="supported families"):
            aggregator_from_config({"family": "owa"})

    def test_missing_fields(self):
        with pytest.raises(AggregationError):
            aggregator_from_config({"family": "quasi_linear", "weight": 0.5})
        with pytest.raises(AggregationError):
            aggregator_from_config({"family": "k"})


# ---------------------------------------------------------------------------
# Closed-form level curves against the bisection they replace
# ---------------------------------------------------------------------------

GENERATORS = [power(2.0), power(0.5), power(3.0), power(-1.0), power(-0.5),
              exponential(1.5), exponential(-2.0), logarithm(), logit(), negated_log(),
              negated_log_complement(), one_minus(), identity()]
TNORM_GENERATORS = [negated_log(), one_minus()]
TCONORM_GENERATORS = [identity(), negated_log_complement(), power(2.0), power(0.5)]
SCHUR_GENERATORS = [identity(), power(2.0), power(0.5), power(3.0)]

aggregators = st.one_of(
    st.builds(quasi_linear_mean, st.sampled_from(GENERATORS),
              st.floats(min_value=1e-3, max_value=1.0 - 1e-3)),
    st.builds(k_mean, st.one_of(st.sampled_from([0.0, 1e-3, 0.999, 1.0]),
                                st.floats(min_value=1e-3, max_value=1.0 - 1e-3))),
    st.sampled_from([schur_pair_mean(f) for f in SCHUR_GENERATORS]),
    st.sampled_from([tnorm(t) for t in TNORM_GENERATORS]),
    st.sampled_from([tconorm(s) for s in TCONORM_GENERATORS]),
)
# the oracle's x1 values: 0 and grid windows no finer than about 1e-5
first_endpoint = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0))


def _round_off_width(af, x1: float, x2: float, target: float) -> float:
    """The x2-width over which A([x1, x2]) moves by 8 ulps of the target,
    from the slope over 1e-4 around x2; 0 where A is flat there."""
    lo, hi = max(x1, x2 - 1e-4), min(1.0, x2 + 1e-4)
    v = af.values([x1, x1], [lo, hi])
    slope = (v[1] - v[0]) / (hi - lo) if hi > lo else 0.0
    return 8.0 * float(np.spacing(max(abs(target), 1e-300))) / slope if slope > 0 else 0.0


def level_hi(af, x1s, target):
    """``_level_hi`` with its cells spelled out as a table: (ok, x2s)."""
    cells, x2s = _level_hi(af, x1s, target)
    ok = np.zeros(np.broadcast_shapes(np.shape(x1s), np.shape(target)), dtype=bool)
    ok[cells] = True
    return ok, x2s


def assert_level_hi_matches_bisection(af, x1: float, target: float) -> float:
    """The closed-form x2 brackets like the bisection and lands within 1e-12
    of it, widened only where A's round-off cannot tell the two apart."""
    ok, x2 = level_hi(af, np.array([x1]), target)
    ref = _bisect_hi(af, np.array([x1]), target)
    assert x2.size == ok.sum()
    assert ok[0] == reference_level_hi(af, np.array([x1]), target)[1][0]
    if ok[0]:
        assert x1 <= x2[0] <= 1.0
        slack = 1e-12 + _round_off_width(af, x1, float(ref[0]), target)
        assert abs(x2[0] - ref[0]) <= slack, (af.name, x1, target, x2[0], ref[0])
    return float(x2[0]) if ok[0] else math.nan


def _without_closed_form(af):
    """A with its values but a descriptor that has no ``solve_hi``."""
    return AggregationFunction(f"plain {af.name}", object(), af._values)


# one level-curve row: x1, a fraction or free target, and whether the target
# lies on the curve through [x1, x1 + frac (1 - x1)]
level_rows = st.lists(st.tuples(first_endpoint, unit, st.booleans()), min_size=1, max_size=12)


class TestLevelCurve:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(aggregators, aggregators.map(_without_closed_form)), level_rows)
    def test_per_row_targets_match_row_by_row_calls(self, af, rows):
        x1s = np.array([x1 for x1, _, _ in rows])
        targets = np.array([af(Interval(x1, x1 + t * (1.0 - x1))) if on_curve else t
                            for x1, t, on_curve in rows])
        ok, x2s = level_hi(af, x1s, targets)
        bisected = _bisect_hi(af, x1s, targets)
        cell = np.cumsum(ok) - 1
        for i in range(len(rows)):
            ok1, x2 = level_hi(af, x1s[i:i + 1], float(targets[i]))
            assert ok[i] == ok1[0]
            assert x2s[cell[i]:cell[i] + 1][:int(ok[i])].tobytes() == x2.tobytes(), (af.name, i)
            x2 = _bisect_hi(af, x1s[i:i + 1], float(targets[i]))
            assert bisected[i:i + 1].tobytes() == x2.tobytes(), (af.name, i)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(aggregators, aggregators.map(_without_closed_form)),
           st.lists(first_endpoint, min_size=1, max_size=8),
           st.lists(unit, min_size=1, max_size=8))
    @example(k_mean(0.0), [0.0, 0.3, 1.0], [0.0, 0.3, 0.3 + 5e-14, 0.5])
    def test_a_column_of_levels_matches_the_flat_call(self, af, x1, levels):
        # one row per level, as the oracle's scan asks for them, against
        # every (level, x1) spelled out, and against the dense table
        x1, levels = np.array(x1), np.array(levels)
        ok, x2s = level_hi(af, x1, levels[:, None])
        flat_ok, flat = level_hi(af, np.tile(x1, levels.size), np.repeat(levels, x1.size))
        assert ok.shape == (levels.size, x1.size) and x2s.shape == (ok.sum(),)
        assert x2s.tobytes() == flat.tobytes(), af.name
        assert ok.ravel().tobytes() == flat_ok.tobytes(), af.name
        dense, dense_ok = reference_level_hi(af, x1, levels[:, None])
        assert ok.tobytes() == dense_ok.tobytes(), af.name
        assert x2s.tobytes() == dense[ok].tobytes(), af.name

    @settings(max_examples=400, deadline=None)
    @given(aggregators, first_endpoint, unit)
    def test_on_curve_targets_match_bisection(self, af, x1, frac):
        x2 = x1 + frac * (1.0 - x1)
        assert_level_hi_matches_bisection(af, x1, af(Interval(x1, x2)))

    @settings(max_examples=200, deadline=None)
    @given(aggregators, first_endpoint, unit)
    def test_free_targets_match_bisection(self, af, x1, target):
        assert_level_hi_matches_bisection(af, x1, target)

    @pytest.mark.parametrize("af", REPRESENTATIVES, ids=lambda a: a.name)
    def test_targets_at_the_ends_of_the_bracket(self, af):
        for x1 in (0.0, 1e-6, 0.1, 0.5, 0.9, 1.0):
            assert_level_hi_matches_bisection(af, x1, af(Interval(x1, x1)))
            assert_level_hi_matches_bisection(af, x1, af(Interval(x1, 1.0)))

    def test_flat_lukasiewicz_level_set_gives_its_lowest_point(self):
        # T(x1, x2) = 0 for every x2 <= 1 - x1: the lowest solution is x1
        luk = tnorm(one_minus())
        for x1 in (0.0, 0.01, 0.3, 0.5):
            assert assert_level_hi_matches_bisection(luk, x1, 0.0) == x1

    def test_flat_bounded_sum_level_set_gives_its_lowest_point(self):
        # S(x1, x2) = 1 for every x2 >= 1 - x1
        bounded = tconorm(identity())
        for x1 in (0.0, 0.2, 0.4):
            x2 = assert_level_hi_matches_bisection(bounded, x1, 1.0)
            assert x2 == pytest.approx(1.0 - x1, abs=1e-15)
        for x1 in (0.5, 0.7, 1.0):
            assert assert_level_hi_matches_bisection(bounded, x1, 1.0) == x1

    @pytest.mark.parametrize("af", [geometric_mean(0.3), logit_mean(0.6)],
                             ids=lambda a: a.name)
    def test_zero_first_endpoint_with_infinite_generator(self, af):
        # f(0) = -inf: A([0, x2]) = 0 for every x2, so only target 0 is bracketed
        assert assert_level_hi_matches_bisection(af, 0.0, 0.0) == 0.0
        for target in (5e-14, 1e-9, 0.3, 1.0):
            assert_level_hi_matches_bisection(af, 0.0, target)
        assert not level_hi(af, np.array([0.0]), 0.3)[0][0]

    @pytest.mark.parametrize("w", [1e-3, 1e-2, 0.99, 0.999])
    @pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: g.name)
    def test_weights_near_zero_and_one(self, gen, w):
        af = quasi_linear_mean(gen, w)
        for x1 in (0.0, 0.05, 0.4, 0.8):
            for x2 in (x1, 0.5 * (x1 + 1.0), 1.0):
                assert_level_hi_matches_bisection(af, x1, af(Interval(x1, x2)))

    def test_projection_that_ignores_the_second_endpoint(self):
        # k_mean(0) has no closed form for x2: flat rows give x1, the
        # bracketed rest falls back to bisection
        k0 = k_mean(0.0)
        assert np.isnan(k0.descriptor.solve_hi(np.array([0.3]), 0.3)[0])
        assert assert_level_hi_matches_bisection(k0, 0.3, 0.3) == 0.3
        assert_level_hi_matches_bisection(k0, 0.3, 0.3 + 5e-14)
        assert not level_hi(k0, np.array([0.3]), 0.4)[0][0]

    def test_descriptor_without_closed_form_falls_back_to_bisection(self):
        af = root_power_mean(2.0, 0.3)
        plain = AggregationFunction("plain", object(), af._values)
        for x1 in np.linspace(0.3, 0.6, 7):  # A([x1, x1]) <= 0.6 <= A([x1, 1])
            assert level_hi(plain, np.array([x1]), 0.6)[0][0]
            x2 = assert_level_hi_matches_bisection(plain, float(x1), 0.6)
            assert x2 == pytest.approx(assert_level_hi_matches_bisection(af, float(x1), 0.6),
                                       abs=1e-12)


# ---------------------------------------------------------------------------
# Quasi views against the aggregators they stand for
# ---------------------------------------------------------------------------


class TestQuasiView:
    @settings(max_examples=300, deadline=None)
    @given(aggregators, unit, unit, unit, unit, st.integers(0, 2**32 - 1))
    def test_view_orders_intervals_as_the_aggregator(self, af, p, q, r, s, seed):
        """sign(A(u) - A(x)) = sign(M(u) - M(x)) wherever |M(u) - M(x)| > 1e-9,
        on the drawn pair (u, x) and 255 uniform random ones."""
        view = af.descriptor.quasi_view()
        assume(view is not None)
        mean = quasi_linear_mean(*view)
        ends = np.sort(np.random.default_rng(seed).random((2, 256, 2)), axis=-1)
        ends[:, 0] = sorted((p, q)), sorted((r, s))
        (lo_u, hi_u), (lo_x, hi_x) = ends[0].T, ends[1].T
        dm = mean.values(lo_u, hi_u) - mean.values(lo_x, hi_x)
        a_u, a_x = af.values(lo_u, hi_u), af.values(lo_x, hi_x)
        da = a_u - a_x
        apart = np.abs(dm) > 1e-9
        # a strict t-conorm nears 1 like (1 - M)^2, so means 1e-9 apart can
        # round to one value there; no other tie is allowed
        tie = apart & (da == 0.0)
        assert np.all(np.minimum(a_u, a_x)[tie] > 1.0 - 1e-12), (af.name, ends[:, tie])
        flipped = apart & (da != 0.0) & (np.sign(da) != np.sign(dm))
        assert not flipped.any(), (af.name, ends[:, flipped])

    @pytest.mark.parametrize("af", [
        tnorm(one_minus()), tconorm(identity()), tconorm(power(2.0)), tconorm(power(0.5)),
        k_mean(0.0), k_mean(1.0),
    ], ids=lambda a: a.name)
    def test_no_view_for_nilpotent_and_endpoint_projections(self, af):
        assert af.descriptor.quasi_view() is None


# ---------------------------------------------------------------------------
# Saturation facts against the values
# ---------------------------------------------------------------------------

# the nine nilpotent generators of tests/nilpotent_witnesses.py: a finite t(0) or s(1)
NILPOTENT = ([tnorm(t) for t in (make() for make in nilpotent_witnesses.T_GENERATORS)
              if math.isfinite(t.at_zero)]
             + [tconorm(s) for s in (make() for make in nilpotent_witnesses.S_GENERATORS)
                if math.isfinite(s.at_one)])
# generators infinite at 0 (log, -log, x^-1), at 1 (-log(1-x)), at both
# ends (logit) and at neither
SATURATION_GENERATORS = [logarithm(), negated_log(), power(-1.0), negated_log_complement(),
                         logit(), power(2.0), power(0.5), exponential(-2.0), one_minus(),
                         identity()]
saturation_families = st.one_of(
    st.sampled_from([k_mean(0.0), k_mean(0.5), k_mean(1.0)]),
    st.builds(quasi_linear_mean, st.sampled_from(SATURATION_GENERATORS), weight),
    st.sampled_from([schur_pair_mean(f) for f in SCHUR_GENERATORS]),
    st.sampled_from([tnorm(negated_log()), tconorm(negated_log_complement())]),
    st.sampled_from(NILPOTENT))


class TestSaturationFacts:
    """What each descriptor states about where A saturates, against A's
    values."""

    def test_nine_nilpotent_generators(self):
        assert len(NILPOTENT) == 9

    @settings(max_examples=300, deadline=None)
    @given(saturation_families, st.lists(st.floats(1e-3, 1.0 - 1e-3), min_size=1, max_size=8))
    def test_stated_edges_match_the_values(self, af, xs):
        xs = np.array(xs)
        assert is_conjunctive(af) == bool(np.all(af.values(np.zeros_like(xs), xs) == 0.0))
        assert is_disjunctive(af) == bool(np.all(af.values(xs, np.ones_like(xs)) == 1.0))

    @settings(max_examples=100, deadline=None)
    @given(saturation_families)
    def test_only_nilpotent_sides_state_a_square(self, af):
        assert (_nilpotent_square(af) is not None) == any(af is n for n in NILPOTENT)

    @pytest.mark.parametrize("af", NILPOTENT, ids=lambda a: a.name)
    def test_stated_square_is_flat(self, af):
        p, q = _nilpotent_square(af)
        level = 0.0 if is_conjunctive(af) else 1.0
        assert (p, q) == ((0.0, q) if level == 0.0 else (p, 1.0))
        t = np.linspace(p, q, 33)
        lo, hi = (m.ravel() for m in np.meshgrid(t, t))
        lo, hi = lo[lo <= hi], hi[lo <= hi]
        v = af.values(lo, hi)
        # the square's inner corner [m, m] is the bisected root m of
        # g(m) = g(0)/2 (g(1)/2), which can land one ulp outside the flat
        # region, where A misses its level by an ulp
        corner = (lo == hi) & (lo == (q if level == 0.0 else p))
        assert np.all(v[~corner] == level)
        assert np.all(np.abs(v[corner] - level) <= np.spacing(1.0))

    def test_a_descriptor_that_states_nothing(self):
        af = AggregationFunction("opaque", object(), root_power_mean(2.0, 0.5).values)
        assert not is_conjunctive(af)
        assert not is_disjunctive(af)
        assert _nilpotent_square(af) is None
