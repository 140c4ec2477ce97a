import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intervalorders import (
    Convexity,
    Generator,
    GeneratorError,
    ScanOutcome,
    build_battery,
    collision_gap,
    collision_scan,
    composite,
    exponential,
    find_collision,
    generator_from_config,
    identity,
    logarithm,
    logit,
    negated_log,
    negated_log_complement,
    one_minus,
    power,
    registry_composite_shape,
    validate_generator,
)
from intervalorders.admissibility import quasi_view
from bisect_reference import reference_bisect_root
from logit_reference import reference_logit
from intervalorders.generators import BISECT_DEPTH, _n_signs, _weight_band, bisect_root
from registry_reference import reference_composite_shape

ALL_BUILTINS = [
    power(2.0), power(0.5), power(-1.0), exponential(1.0), exponential(-1.0),
    logarithm(), logit(), negated_log(), negated_log_complement(),
    one_minus(), identity(),
]


class TestBuiltins:
    @pytest.mark.parametrize("gen", ALL_BUILTINS, ids=lambda g: g.name)
    def test_contract(self, gen):
        validate_generator(gen)
        assert float(gen.fn(0.0)) == pytest.approx(gen.at_zero, abs=1e-12) or (
            math.isinf(gen.at_zero) and float(gen.fn(0.0)) == gen.at_zero
        )
        assert float(gen.fn(1.0)) == pytest.approx(gen.at_one, abs=1e-12) or (
            math.isinf(gen.at_one) and float(gen.fn(1.0)) == gen.at_one
        )

    def test_negative_power_blows_up_at_zero(self):
        g = power(-2.0)
        assert g.at_zero == math.inf
        assert not g.increasing

    def test_logit_endpoints(self):
        g = logit()
        assert float(g.fn(0.0)) == -math.inf
        assert float(g.fn(1.0)) == math.inf
        assert float(g.inv(0.0)) == pytest.approx(0.5)

    def test_validation_rejects_non_monotone(self):
        bad = Generator(
            name="wiggle",
            fn=lambda x: np.sin(6 * np.asarray(x, float)),
            inv=lambda y: np.arcsin(np.asarray(y, float)) / 6,
            increasing=True,
            at_zero=0.0,
            at_one=math.sin(6.0),
        )
        with pytest.raises(GeneratorError):
            validate_generator(bad)

    def test_validation_rejects_bad_inverse(self):
        bad = Generator(
            name="skewed",
            fn=lambda x: np.asarray(x, float) ** 2,
            inv=lambda y: np.asarray(y, float),  # not the inverse
            increasing=True,
            at_zero=0.0,
            at_one=1.0,
        )
        with pytest.raises(GeneratorError):
            validate_generator(bad)

    def test_validation_runs_once_per_generator(self):
        calls = []

        def fn(x):
            calls.append(1)
            return np.asarray(x, float) ** 3

        gen = Generator(name="cube", fn=fn, inv=lambda y: np.cbrt(np.asarray(y, float)),
                        increasing=True, at_zero=0.0, at_one=1.0)
        validate_generator(gen)
        validate_generator(gen)
        assert len(calls) == 1
        # g o f^{-1} with f = gen samples only gen's inverse in the shape scan
        composite(gen, identity())
        assert len(calls) == 1
        twin = Generator(name="cube", fn=fn, inv=gen.inv, increasing=True,
                         at_zero=0.0, at_one=1.0)
        before = len(calls)
        validate_generator(twin)
        assert len(calls) == before + 1  # an equal but distinct object is checked anew

    def test_invalid_generator_raises_in_composite_every_time(self):
        bad = Generator(
            name="skewed",
            fn=lambda x: np.asarray(x, float) ** 2,
            inv=lambda y: np.asarray(y, float),
            increasing=True,
            at_zero=0.0,
            at_one=1.0,
        )
        with pytest.raises(GeneratorError) as direct:
            validate_generator(bad)
        for _ in range(2):
            with pytest.raises(GeneratorError) as first:
                composite(bad, identity())
            with pytest.raises(GeneratorError) as second:
                composite(identity(), bad)
            assert str(first.value) == str(second.value) == str(direct.value)

    def test_config_parsing(self):
        g = generator_from_config({"kind": "power", "gamma": 2.0})
        assert g.kind == "power" and g.param == 2.0
        assert generator_from_config({"kind": "logit"}).kind == "logit"

    def test_config_unknown_kind_lists_supported(self):
        with pytest.raises(GeneratorError, match="supported kinds"):
            generator_from_config({"kind": "spline"})

    def test_config_missing_parameter(self):
        with pytest.raises(GeneratorError, match="gamma"):
            generator_from_config({"kind": "exponential"})

    def test_overflowing_exponential_rate_rejected(self):
        with pytest.raises(GeneratorError, match="rate 1000.0"):
            exponential(1000.0)
        with pytest.raises(GeneratorError, match="rate 1000.0"):
            generator_from_config({"kind": "exponential", "gamma": 1000})

    @pytest.mark.parametrize("make", [power, exponential])
    @pytest.mark.parametrize("param", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameter_rejected(self, make, param):
        with pytest.raises(GeneratorError, match="finite"):
            make(param)
        with pytest.raises(GeneratorError, match="finite"):
            generator_from_config({"kind": make.__name__, "gamma": str(param)})


def _ulp_distance(a, b) -> np.ndarray:
    """Number of float64 steps between a and b, elementwise."""
    ia, ib = (np.atleast_1d(np.asarray(v, dtype=float)).view(np.int64) for v in (a, b))
    # sign-magnitude bit patterns onto one monotone integer line (-0.0 == 0.0)
    ia, ib = (np.where(i < 0, np.int64(-2**63) - i, i) for i in (ia, ib))
    return np.abs(ia - ib)


class TestLogitMatchesScipy:
    """The logit generator against scipy.special.logit/expit, whose formulas
    it evaluates with numpy.  numpy's log, log1p and exp may differ from the
    C library's in the last bit, so about 2% of points differ; over about
    2e6 draws fn stayed within 2 ulps and inv within 4."""

    FN_EDGES = [0.0, 1.0, 0.3, 0.65, 5e-324, 1.0 - 2.0**-53, math.nan,
                *(math.nextafter(v, d) for v in (0.3, 0.65) for d in (0.0, 1.0))]
    INV_EDGES = [math.inf, -math.inf, 750.0, -750.0, 0.0, math.nan]

    @staticmethod
    def assert_close(ours, xs, reference, max_ulps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ours(xs)
        want = reference(np.asarray(xs, dtype=float))
        finite = np.isfinite(want)
        np.testing.assert_array_equal(np.isfinite(got), finite)
        np.testing.assert_array_equal(np.asarray(got)[~finite], np.asarray(want)[~finite])
        assert int(_ulp_distance(got, want)[np.atleast_1d(finite)].max(initial=0)) <= max_ulps

    def check(self, xs, inverse):
        special = pytest.importorskip("scipy.special")
        ours = logit().inv if inverse else logit().fn
        reference = special.expit if inverse else special.logit
        max_ulps = 4 if inverse else 2
        self.assert_close(ours, np.array(xs, dtype=float), reference, max_ulps)
        for x in xs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert type(ours(x)) is np.float64
            self.assert_close(ours, x, reference, max_ulps)

    def test_fn_edges(self):
        self.check(self.FN_EDGES, inverse=False)

    def test_inv_edges(self):
        self.check(self.INV_EDGES, inverse=True)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=48))
    def test_fn_draws(self, xs):
        self.check(xs, inverse=False)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=48))
    def test_inv_draws(self, ys):
        self.check(ys, inverse=True)


class TestLogitBranches:
    """logit evaluates both formulas everywhere and keeps each element's own;
    the bits stay those of evaluating each on its own elements only."""

    EDGES = [0.3, 0.65, 0.0, 1.0, math.nan, -0.0, 0.5, 5e-324, 1.0 - 2.0**-53,
             *(math.nextafter(v, d) for v in (0.3, 0.65) for d in (0.0, 1.0))]

    @staticmethod
    def assert_same_bits(xs):
        got, want = logit().fn(xs), reference_logit(xs)
        assert type(got) is type(want)
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))

    def test_edges(self):
        self.assert_same_bits(np.array(self.EDGES))
        for x in self.EDGES:
            self.assert_same_bits(x)
        self.assert_same_bits(np.array([0.5, 0.4]))  # one formula only
        self.assert_same_bits(np.array([0.1, 0.9]))
        self.assert_same_bits(np.array([]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGES), st.floats()),
                    min_size=1, max_size=48))
    def test_draws(self, xs):
        self.assert_same_bits(np.array(xs))
        self.assert_same_bits(xs[0])


FN_EDGES = [0.0, -0.0, 1.0, 0.5, 5e-324, 1.0 - 2.0**-53, -1.0, 2.0,
            math.inf, -math.inf, math.nan]
INV_EDGES = [0.0, -0.0, 1.0, -1.0, 5e-324, 750.0, -750.0, 1e308, -1e308,
             math.inf, -math.inf, math.nan]


def _quiet(call, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(x)


def _bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


class TestErrorState:
    """Each builtin's public ``fn`` and ``inv`` and each composite's ``fn``
    hold numpy's error state themselves: no RuntimeWarning on any edge
    input, and a numpy scalar back for a scalar.  A kernel that holds the
    error state calls a builtin's ``expr`` instead, which gives the same
    bits."""

    @pytest.mark.parametrize("gen", ALL_BUILTINS, ids=lambda g: g.name)
    def test_public_callables_never_warn(self, gen):
        for call, edges in ((gen.fn, FN_EDGES), (gen.inv, INV_EDGES)):
            _quiet(call, np.array(edges))
            for x in edges:
                assert type(_quiet(call, x)) is np.float64

    @pytest.mark.parametrize("f", ALL_BUILTINS, ids=lambda g: g.name)
    def test_composites_never_warn(self, f):
        edges = [f.at_zero, f.at_one, *INV_EDGES]
        for g in ALL_BUILTINS:
            h = composite(f, g)
            _quiet(h.fn, np.array(edges))
            for y in edges:
                assert type(_quiet(h.fn, y)) is np.float64

    def test_collision_gap_never_warns(self):
        # log(0) divides by zero at t1 = 0, and the gap is infinite
        assert _quiet(lambda h: collision_gap(0.5, 0.0, 1.0, 0.5, 0.5, h), np.log) == math.inf

    @pytest.mark.parametrize("gen", ALL_BUILTINS, ids=lambda g: g.name)
    def test_the_expression_gives_the_public_bits(self, gen):
        for call, edges in ((gen.fn, FN_EDGES), (gen.inv, INV_EDGES)):
            with np.errstate(all="ignore"):
                for x in (np.array(edges), *(np.asarray(v) for v in edges), *edges):
                    want, got = call(x), call.expr(x)
                    assert type(got) is type(want)
                    assert np.array_equal(_bits(got), _bits(want))


EXPECTED_SHAPES = [
    # (f, g, convexity, increasing?)
    (power(2.0), power(0.5), Convexity.STRICTLY_CONCAVE, True),
    (power(0.5), power(2.0), Convexity.STRICTLY_CONVEX, True),
    (identity(), identity(), Convexity.AFFINE, True),
    (identity(), power(2.0), Convexity.STRICTLY_CONVEX, True),
    (identity(), one_minus(), Convexity.AFFINE, False),
    (logarithm(), exponential(-1.0), Convexity.STRICTLY_CONCAVE, False),
    (logarithm(), exponential(1.0), Convexity.STRICTLY_CONVEX, True),
    (logarithm(), exponential(-2.0), Convexity.MIXED, False),
    (logarithm(), power(2.0), Convexity.STRICTLY_CONVEX, True),
    (power(2.0), logarithm(), Convexity.STRICTLY_CONCAVE, True),
    (power(-1.0), logarithm(), Convexity.STRICTLY_CONVEX, False),
    (logit(), exponential(1.0), Convexity.MIXED, True),
    (logit(), exponential(-3.0), Convexity.MIXED, False),
    (logit(), power(2.0), Convexity.MIXED, True),
    (logit(), power(-1.0), Convexity.STRICTLY_CONVEX, False),
    (logit(), logarithm(), Convexity.STRICTLY_CONCAVE, True),
    (logarithm(), logit(), Convexity.STRICTLY_CONVEX, True),
    (negated_log(), negated_log_complement(), Convexity.STRICTLY_CONVEX, False),
    (negated_log_complement(), negated_log(), Convexity.STRICTLY_CONVEX, False),
    (negated_log(), negated_log(), Convexity.AFFINE, True),
    (exponential(1.0), exponential(2.0), Convexity.STRICTLY_CONVEX, True),
    (exponential(2.0), exponential(1.0), Convexity.STRICTLY_CONCAVE, True),
    (exponential(1.0), exponential(-1.0), Convexity.STRICTLY_CONVEX, False),
    (exponential(-1.0), logarithm(), Convexity.STRICTLY_CONCAVE, False),
    (exponential(-2.0), logarithm(), Convexity.MIXED, False),
    # boundary of the concavity region sits exactly on the excluded endpoint
    (power(0.5), exponential(-0.5), Convexity.STRICTLY_CONCAVE, False),
    (power(2.0), exponential(1.0), Convexity.STRICTLY_CONCAVE, True),
    (power(2.0), exponential(1.5), Convexity.MIXED, True),
    (power(0.5), exponential(2.0), Convexity.STRICTLY_CONVEX, True),
]


class TestRegistryShapes:
    @pytest.mark.parametrize(
        "f,g,conv,inc", EXPECTED_SHAPES,
        ids=[f"{f.name}->{g.name}" for f, g, _, _ in EXPECTED_SHAPES],
    )
    def test_expected_classification(self, f, g, conv, inc):
        assert registry_composite_shape(f, g) is conv
        # the composite's direction is structural
        assert (f.increasing == g.increasing) is inc

    def test_generator_shape_of_power(self):
        def shape(f):
            return registry_composite_shape(identity(), f)

        assert shape(power(2.0)) is Convexity.STRICTLY_CONVEX
        assert shape(power(0.5)) is Convexity.STRICTLY_CONCAVE
        assert shape(identity()) is Convexity.AFFINE

    def test_unknown_for_custom_generator(self):
        custom = Generator(
            name="cubic-blend",
            fn=lambda x: np.asarray(x, float) ** 3,
            inv=lambda y: np.cbrt(np.asarray(y, float)),
            increasing=True,
            at_zero=0.0,
            at_one=1.0,
        )
        assert registry_composite_shape(custom, identity()) is Convexity.UNKNOWN


# Builtin generators for the differential test against the float reference:
# the parameters of every quasi view in the battery, and more
REGISTRY_TABLE = [
    *(power(p) for p in (-3.0, -2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 0.9, 1.0, 1.5, 2.0, 3.0, 4.0)),
    *(exponential(r) for r in (-4.0, -3.0, -2.5, -2.0, -1.5, -1.0, -0.8, -0.5, -0.2, -0.05,
                               0.05, 0.2, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)),
    logarithm(), logit(), negated_log(), negated_log_complement(), one_minus(), identity(),
]

ABOVE_ONE = [1 + 1e-8, 1 + 1e-10, 1 + 1e-13, math.nextafter(1.0, 2.0)]
BELOW_ONE = [1 - 1e-8, 1 - 1e-10, 1 - 1e-13, math.nextafter(1.0, 0.0)]
TINY = [1e-8, 1e-10, 1e-13, math.ulp(0.0)]
CONVEX, CONCAVE, MIXED = Convexity.STRICTLY_CONVEX, Convexity.STRICTLY_CONCAVE, Convexity.MIXED

# (f, g, convexity, increasing?) next to a root of N = R_g - R_f, derived by
# hand:
# - f = power(1+e), g = exponential(1): N = -(x - 1)(x - e), a root at e;
# - f = identity, g = power(1+e): N = e(1 - x);
# - f = exponential(e), g = identity: N = -e x(1 - x);
# - f = power(1/2), g = exponential(c): N = (1 - x)(1/2 + c x), a double
#   root at 1 for c = -1/2 and an interior root -1/(2c) for c < -1/2.
NEAR_DEGENERATE = [
    *((power(p), exponential(1.0), MIXED, True) for p in ABOVE_ONE),
    *((exponential(1.0), power(p), MIXED, True) for p in ABOVE_ONE),
    *((power(p), exponential(1.0), CONVEX, True) for p in BELOW_ONE),
    *((exponential(1.0), power(p), CONCAVE, True) for p in BELOW_ONE),
    *((identity(), power(p), CONVEX, True) for p in ABOVE_ONE),
    *((identity(), power(p), CONCAVE, True) for p in BELOW_ONE),
    *((exponential(e), identity(), CONCAVE, True) for e in TINY),
    *((exponential(-e), identity(), CONVEX, False) for e in TINY),
    (power(0.5), exponential(math.nextafter(-0.5, -1.0)), MIXED, False),
    (power(0.5), exponential(-0.5), CONCAVE, False),
    (power(0.5), exponential(math.nextafter(-0.5, 0.0)), CONCAVE, False),
]


def _label(gen: Generator) -> str:
    return gen.kind if gen.param is None else f"{gen.kind}({gen.param!r})"


def _exact_r(gen: Generator, x: Fraction) -> Fraction:
    """R(x) = x(1-x) f''(x)/f'(x), from each kind's closed form."""
    if gen.kind == "power":
        return (Fraction(gen.param) - 1) * (1 - x)
    if gen.kind == "exponential":
        return Fraction(gen.param) * x * (1 - x)
    return {"identity": Fraction(0), "one_minus": Fraction(0), "logarithm": x - 1,
            "negated_log": x - 1, "negated_log_complement": x, "logit": 2 * x - 1}[gen.kind]


near_one = st.floats(1 - 1e-6, 1 + 1e-6)
shape_param = st.one_of(
    st.floats(-50.0, 50.0).filter(bool), near_one, near_one.map(lambda v: v - 1.5),
    st.floats(-1e-6, 1e-6).filter(bool), st.sampled_from([-0.5, 1.0, math.ulp(0.0)]),
)
builtin_generator = st.one_of(
    st.builds(power, shape_param), st.builds(exponential, shape_param),
    st.sampled_from([logarithm(), logit(), negated_log(), negated_log_complement(),
                     one_minus(), identity()]),
)
open_unit_float = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
open_unit_point = st.one_of(
    st.fractions(0, 1, max_denominator=10**6).filter(lambda x: 0 < x < 1),
    open_unit_float.map(Fraction), open_unit_float.map(lambda t: 1 - Fraction(t)),
)


class TestExactRegistry:
    """The registry decides the signs of N on (0,1) exactly, in Fractions."""

    def test_table_covers_the_battery(self):
        table = {(gen.kind, gen.param) for gen in REGISTRY_TABLE}
        views = {quasi_view(af) for case in build_battery() for af in (case.a, case.b)}
        battery = {(view[0].kind, view[0].param) for view in views if view is not None}
        assert battery <= table
        assert len(table) >= 32

    def test_matches_the_float_reference_away_from_degenerate_parameters(self):
        moved = [(f.name, g.name) for f in REGISTRY_TABLE for g in REGISTRY_TABLE
                 if registry_composite_shape(f, g) != reference_composite_shape(f, g)]
        assert moved == []

    @pytest.mark.parametrize(
        "f,g,conv,inc", NEAR_DEGENERATE,
        ids=[f"{_label(f)}->{_label(g)}" for f, g, _, _ in NEAR_DEGENERATE],
    )
    def test_near_degenerate_parameters(self, f, g, conv, inc):
        assert registry_composite_shape(f, g) is conv
        assert (f.increasing == g.increasing) is inc

    @settings(max_examples=400, deadline=None)
    @given(builtin_generator, builtin_generator, st.lists(open_unit_point, min_size=1, max_size=8))
    def test_every_sign_of_n_is_in_the_shape(self, f, g, xs):
        shape = registry_composite_shape(f, g)
        # sign(h'') = sign(g') * sign(N)
        along_g = 1 if g.increasing else -1
        allowed = {
            Convexity.AFFINE: set(),
            Convexity.MIXED: {1, -1},
            Convexity.STRICTLY_CONVEX: {along_g},
            Convexity.STRICTLY_CONCAVE: {-along_g},
        }[shape]
        for x in xs:
            n = _exact_r(g, x) - _exact_r(f, x)
            assert n == 0 or (1 if n > 0 else -1) in allowed


BAND_GENERATORS = [
    power(2.0), power(0.5), power(-1.0), power(1.5), exponential(1.0), exponential(-1.0),
    exponential(3.0), exponential(-0.5), logarithm(), logit(), negated_log(),
    negated_log_complement(), one_minus(), identity(),
]
BAND_PAIRS = [(f, g) for f in BAND_GENERATORS for g in BAND_GENERATORS]
# points of (0, 1) 1e-3 apart and down to 1e-12 from either end, where
# finite ends of L are approached
BAND_SAMPLES = np.unique(np.concatenate([
    np.geomspace(1e-12, 0.5, 100), np.linspace(0.0, 1.0, 1001)[1:-1],
    1.0 - np.geomspace(1e-12, 0.5, 100)]))


class TestWeightBand:
    """The closed-form L = log|g'/f'| against the generators themselves,
    and the band's ends against L(x2) - L(x1) sampled over x1 < x2."""

    @pytest.mark.parametrize("f, g", BAND_PAIRS, ids=[f"{f.name}->{g.name}" for f, g in BAND_PAIRS])
    def test_log_q_is_the_log_derivative_ratio(self, f, g):
        band = _weight_band(f.kind, f.param, g.kind, g.param)
        xs, h = np.linspace(0.05, 0.95, 19), 1e-6

        def log_ratio(x):
            return np.log(np.abs((g.fn(x + h) - g.fn(x - h)) / (f.fn(x + h) - f.fn(x - h))))

        # L is fixed up to a constant
        np.testing.assert_allclose(band.log_q(xs) - band.log_q(0.5),
                                   log_ratio(xs) - log_ratio(0.5), atol=1e-6)

    @pytest.mark.parametrize("f, g", BAND_PAIRS, ids=[f"{f.name}->{g.name}" for f, g in BAND_PAIRS])
    def test_ends_bound_and_meet_the_sampled_range(self, f, g):
        band = _weight_band(f.kind, f.param, g.kind, g.param)
        signs = _n_signs(f.kind, f.param, g.kind, g.param)
        ls = band.log_q(BAND_SAMPLES)
        d = (ls[None, :] - ls[:, None])[np.triu_indices(ls.size, 1)]
        assert band.lo - band.slack <= d.min() and d.max() <= band.hi + band.slack
        # an end is exactly 0 where N keeps one sign
        assert (band.lo == 0) == (-1 not in signs) and (band.hi == 0) == (1 not in signs)
        for end, (x1, x2), seen in ((band.lo, band.lo_at, d.min()), (band.hi, band.hi_at, d.max())):
            if end and math.isfinite(end):
                assert float(band.log_q(x2) - band.log_q(x1)) == end
                assert abs(seen - end) <= 1e-5 * max(1.0, abs(end))


class TestComposite:
    def test_quarter_power_map_and_shape(self):
        comp = composite(power(2.0), power(0.5))
        ys = np.linspace(0.05, 0.95, 11)
        assert np.allclose(comp(ys), ys**0.25, atol=1e-12)
        assert comp.shape is Convexity.STRICTLY_CONCAVE
        assert comp.domain == (0.0, 1.0)
        # concavity confirmed by independent second differences
        d = 1e-4
        second = comp(ys + d) - 2 * comp(ys) + comp(ys - d)
        assert np.all(second < 0)

    def test_identity_composite_affine(self):
        comp = composite(identity(), identity())
        assert comp.shape is Convexity.AFFINE

    def test_log_exponential_domain(self):
        comp = composite(logarithm(), exponential(-1.0))
        assert comp.domain == (-math.inf, 0.0)
        assert comp.shape is Convexity.STRICTLY_CONCAVE
        ys = np.array([-3.0, -1.0, -0.1])
        assert np.allclose(comp(ys), np.exp(-np.exp(ys)), atol=1e-12)

    def test_strict_product_conorm_composite_convex(self):
        # -log(1 - e^(-y)) on (0, inf): hand-checked second derivative
        # e^y / (e^y - 1)^2 is positive everywhere
        comp = composite(negated_log(), negated_log_complement())
        ys = np.linspace(0.2, 4.0, 9)
        expected = -np.log1p(-np.exp(-ys))
        assert np.allclose(comp(ys), expected, atol=1e-12)
        d = 1e-4
        second = comp(ys + d) - 2 * comp(ys) + comp(ys - d)
        assert np.all(second > 0)

    def test_custom_generator_has_unknown_convexity(self):
        custom = Generator(
            name="cubic",
            fn=lambda x: np.asarray(x, float) ** 3,
            inv=lambda y: np.cbrt(np.asarray(y, float)),
            increasing=True,
            at_zero=0.0,
            at_one=1.0,
        )
        comp = composite(custom, identity())
        # y^(1/3) is strictly concave on (0,1), but without a registry row
        # no shape is claimed
        assert comp.shape is Convexity.UNKNOWN


REGISTRY_PAIRS = [
    (power(2.0), power(0.5)),
    (power(0.5), power(2.0)),
    (logarithm(), exponential(1.0)),
    (logarithm(), exponential(-1.0)),
    (logit(), exponential(1.0)),
    (logit(), power(2.0)),
    (negated_log(), negated_log_complement()),
    (exponential(1.0), exponential(2.0)),
    (power(2.0), exponential(1.5)),
    (power(-1.0), logarithm()),
]


def without_kind(h):
    return dataclasses.replace(h, kind=None, param=None)


class TestCompositeWithoutRegistryRow:
    @pytest.mark.parametrize(
        "f,g", REGISTRY_PAIRS,
        ids=[f"{f.name}->{g.name}" for f, g in REGISTRY_PAIRS],
    )
    def test_keeps_function_not_convexity(self, f, g):
        # the same maps stripped of their registry kind: the composite is the
        # same function on the same domain, and its convexity is no longer
        # claimed
        registered = composite(f, g)
        bare = composite(without_kind(f), without_kind(g))
        assert registered.shape is not Convexity.UNKNOWN
        assert bare.shape is Convexity.UNKNOWN
        assert bare.domain == registered.domain
        ys = f.fn(np.linspace(0.05, 0.95, 19))
        np.testing.assert_array_equal(bare.fn(ys), registered.fn(ys))

    def test_affine_decreasing_composite_has_unknown_convexity(self):
        # y -> 1 - y has zero curvature: no strict class is invented
        flip = Generator(
            name="flip",
            fn=lambda x: 1.0 - np.asarray(x, float),
            inv=lambda y: 1.0 - np.asarray(y, float),
            increasing=False,
            at_zero=1.0,
            at_one=0.0,
        )
        comp = composite(flip, identity())
        assert comp.shape is Convexity.UNKNOWN
        np.testing.assert_allclose(comp.fn([0.25, 0.5]), [0.75, 0.5])


class TestCollisionGap:
    def test_zero_at_origin(self):
        assert collision_gap(0.0, 0.1, 0.9, 0.3, 0.7, lambda x: x**2) == 0.0

    def test_affine_closed_form(self):
        # for h(x) = a*x + b the gap is a*(v1 - v2)*x identically
        a_coef = 4.0
        for v1, v2, x in [(0.3, 0.6, 0.5), (0.7, 0.2, 0.25), (0.5, 0.5, 0.4)]:
            got = collision_gap(x, 0.1, 0.95, v1, v2, lambda t: a_coef * t + 2.0)
            assert got == pytest.approx(a_coef * (v1 - v2) * x, abs=1e-12)

    def test_square_full_deformation_value(self):
        # equal weights 0.5 at full deformation reduce to the midpoint defect
        # h(0.5) - 0.5 h(0) - 0.5 h(1) = -0.25 for h(x) = x^2
        got = collision_gap(1.0, 0.0, 1.0, 0.5, 0.5, lambda x: x**2)
        assert got == pytest.approx(-0.25, abs=1e-15)

    def test_rejects_deformation_outside_range(self):
        with pytest.raises(ValueError):
            collision_gap(0.9, 0.0, 0.5, 0.5, 0.5, lambda x: x)
        with pytest.raises(ValueError):
            collision_gap(0.1, 0.5, 0.2, 0.5, 0.5, lambda x: x)

    def test_strictly_convex_equal_weights_negative_everywhere(self):
        ts = np.linspace(0.0, 1.0, 12)
        for v in (0.25, 0.5, 0.75):
            for i in range(len(ts) - 1):
                for j in range(i + 1, len(ts)):
                    t1, t2 = float(ts[i]), float(ts[j])
                    for x in np.linspace(0.0, t2 - t1, 8)[1:]:
                        assert collision_gap(x, t1, t2, v, v, lambda s: s**2) < 0
                        assert collision_gap(x, t1, t2, v, v, math.exp) < 0

    def test_strictly_concave_equal_weights_positive_everywhere(self):
        ts = np.linspace(0.05, 1.0, 10)
        for i in range(len(ts) - 1):
            for j in range(i + 1, len(ts)):
                t1, t2 = float(ts[i]), float(ts[j])
                for x in np.linspace(0.0, t2 - t1, 6)[1:]:
                    assert collision_gap(x, t1, t2, 0.5, 0.5, math.sqrt) > 0

    def test_convex_in_deformation_for_convex_h(self):
        # midpoint inequality along the deformation axis
        t1, t2, v1, v2 = 0.1, 0.9, 0.35, 0.6
        xs = np.linspace(0.0, t2 - t1, 9)
        h = lambda s: s**2
        for xa, xb in zip(xs[:-2], xs[2:]):
            mid = 0.5 * (xa + xb)
            lhs = collision_gap(mid, t1, t2, v1, v2, h)
            rhs = 0.5 * (collision_gap(xa, t1, t2, v1, v2, h)
                         + collision_gap(xb, t1, t2, v1, v2, h))
            assert lhs <= rhs + 1e-12


class TestCollisionScan:
    def test_convex_equal_weights_clear_negative(self):
        r = collision_scan(lambda x: np.asarray(x) ** 2, (0.0, 1.0), 0.5, 0.5, 24)
        assert r.outcome is ScanOutcome.CLEAR
        assert r.sign == -1

    def test_affine_equal_weights_collides_identically(self):
        r = collision_scan(lambda x: 2.0 * np.asarray(x) + 1.0, (0.0, 1.0), 0.5, 0.5, 24)
        assert r.outcome is ScanOutcome.COLLISION
        x0, t1, t2 = r.location
        assert 0.0 < x0 <= t2 - t1

    def test_affine_distinct_weights_clear(self):
        r = collision_scan(lambda x: 2.0 * np.asarray(x) + 1.0, (0.0, 1.0), 0.3, 0.6, 24)
        assert r.outcome is ScanOutcome.CLEAR

    def test_sqrt_window_with_spread_weights_clear(self):
        # increasing and strictly concave, yet collision-free for these
        # weights: the scan must not require a convexity match
        r = collision_scan(lambda x: np.sqrt(np.asarray(x)), (1.0, 2.0), 0.4, 0.6, 24)
        assert r.outcome is ScanOutcome.CLEAR
        assert r.sign == -1

    def test_rejects_low_resolution(self):
        with pytest.raises(ValueError):
            collision_scan(lambda x: x, (0.0, 1.0), 0.5, 0.5, 8)

    @pytest.mark.parametrize("domain", [(0.0, -math.inf), (math.inf, 0.0), (math.inf, -math.inf),
                                        (0.5, 0.5), (1.0, 0.0)])
    def test_rejects_an_empty_or_reversed_domain(self, domain):
        with pytest.raises(ValueError, match="degenerate interval"):
            collision_scan(np.exp, domain, 0.5, 0.5, 16)
        with pytest.raises(ValueError, match="degenerate interval"):
            find_collision(np.exp, domain, 0.5, 0.5, 16)

    def test_find_collision_refines_to_near_zero(self):
        loc = find_collision(lambda x: np.sqrt(np.asarray(x)), (1.0, 2.0), 0.45, 0.5, 24)
        assert loc is not None
        x0, t1, t2 = loc
        assert abs(collision_gap(x0, t1, t2, 0.45, 0.5, math.sqrt)) < 1e-10


def _brackets(fn, lo, hi, target=0.0):
    """float.hex of the engine's bracket and of the scalar reference's, which
    calls fn on one float per halving."""
    with np.errstate(all="ignore"):
        want = reference_bisect_root(fn, lo, hi, target)
    got = bisect_root(fn, lo, hi, target)
    return [float(v).hex() for v in got], [float(v).hex() for v in want]


def _cube(x):
    return x * x * x


def _exact_hit_cases():
    # the root is the midpoint of node j at depth k of the halving tree of
    # [0, 1], reached on the walk: rightmost, leftmost (decreasing fn) and a
    # zigzag path, at every depth of the first three calls and the next one
    cases = []
    for k in range(3 * BISECT_DEPTH + 2):
        right = 1.0 - 2.0 ** -(k + 1)
        left = 2.0 ** -(k + 1)
        zigzag = (2 * ((2 ** k) // 3) + 1) / 2.0 ** (k + 1)
        cases += [
            pytest.param(lambda x, r=right: x - r, 0.0, 1.0, 0.0, id=f"hit-right-depth{k}"),
            pytest.param(lambda x, r=left: r - x, 0.0, 1.0, 0.0, id=f"hit-left-depth{k}"),
            pytest.param(lambda x, r=zigzag: x - r, 0.0, 1.0, 0.0, id=f"hit-zigzag-depth{k}"),
        ]
    return cases


_TINY = 5e-324
ADVERSARIAL = _exact_hit_cases() + [
    # not finite at a midpoint, in a region or at lo itself
    pytest.param(lambda x: np.where(x < 0.3, -1.0, np.nan), 0.0, 1.0, 0.0, id="nan-right"),
    pytest.param(lambda x: np.where(x < 0.7, -1.0, np.inf), 0.0, 1.0, 0.0, id="inf-deeper"),
    pytest.param(lambda x: np.where(x > 0.2, -np.inf, 1.0), 0.0, 1.0, 0.0, id="neg-inf-region"),
    pytest.param(lambda x: np.where((x > 0.39) & (x < 0.41), np.nan, x - 0.4), 0.0, 1.0, 0.0,
                 id="nan-around-root"),
    pytest.param(lambda x: 1.0 / np.asarray(x) - 3.0, 0.0, 1.0, 0.0, id="inf-at-lo"),
    pytest.param(lambda x: np.where(x == 0.0, np.nan, x - 1.0 / 3.0), 0.0, 1.0, 0.0,
                 id="nan-at-lo"),
    # brackets a few ulps wide, empty, subnormal, across zero
    pytest.param(lambda x: x - 0.3, 0.3, np.nextafter(0.3, 1.0), 0.0, id="one-ulp"),
    pytest.param(lambda x: x - 0.31, 0.3, 0.3 + 2 * np.spacing(0.3), 0.0, id="two-ulps"),
    pytest.param(lambda x: x - 0.31, 0.3, 0.3 + 3 * np.spacing(0.3), 0.0, id="three-ulps"),
    pytest.param(lambda x: x - 0.3, 0.3, 0.3, 0.0, id="lo-equals-hi"),
    pytest.param(lambda x: x - _TINY, 0.0, 4 * _TINY, 0.0, id="subnormal-hit"),
    pytest.param(lambda x: x - 2.5 * _TINY, 0.0, 5 * _TINY, 0.0, id="subnormal-miss"),
    pytest.param(lambda x: x - 1e-321, -1e-320, 1e-320, 0.0, id="subnormal-across-zero"),
    pytest.param(lambda x: x - 1e-310, 1e-310 - 3 * _TINY, 1e-310 + 3 * _TINY, 0.0,
                 id="subnormal-ulps"),
    # decreasing functions and targets off zero
    pytest.param(lambda x: 1.0 - x * x, 0.0, 1.0, 0.5, id="decreasing-target"),
    pytest.param(_cube, -1.0, 1.0, 0.2, id="cube-target"),
    pytest.param(lambda x: -_cube(x), -1.0, 1.0, -0.3, id="decreasing-cube-target"),
    pytest.param(lambda x: np.floor(x * 1024.0) - 300.0, 0.0, 1.0, 0.5, id="steps-target"),
    # a root at 1e-300 takes about 1000 halvings from [0, 1]: the cap ends it
    pytest.param(lambda x: x - 1e-300, 0.0, 1.0, 0.0, id="halving-cap"),
]


class TestBisectRoot:
    @pytest.mark.parametrize("fn, lo, hi, target", ADVERSARIAL)
    def test_matches_the_scalar_reference(self, fn, lo, hi, target):
        got, want = _brackets(fn, lo, hi, target)
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-10.0, 10.0), st.floats(1e-12, 20.0), st.floats(0.0, 1.0),
           st.sampled_from([-1.0, 1.0]), st.floats(-2.0, 2.0), st.integers(0, 60))
    def test_matches_the_scalar_reference_on_random_cubes_and_steps(
            self, lo, width, where, sign, target, steps_log2):
        hi = lo + width
        root = lo + where * width
        got, want = _brackets(lambda x: sign * _cube(x - root), lo, hi, target)
        assert got == want
        # a staircase has exact hits and long runs of equal values
        scale = 2.0 ** steps_log2
        got, want = _brackets(lambda x: sign * np.floor((x - root) * scale), lo, hi, target)
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_matches_the_scalar_reference_next_to_a_non_finite_region(self, root, edge, bad):
        got, want = _brackets(lambda x: np.where(x > edge, bad, x - root), 0.0, 1.0)
        assert got == want

    def test_halving_cap_leaves_the_bracket_after_200_halvings(self):
        assert bisect_root(lambda x: x - 1e-300, 0.0, 1.0) == (0.0, 2.0 ** -200)

    def test_fn_sees_one_array_per_tree_of_midpoints(self):
        sizes = []

        def fn(x):
            sizes.append(x.shape)
            return x - 1.0 / 3.0

        bisect_root(fn, 0.0, 1.0)
        # lo and 2**depth - 1 midpoints first, then the midpoints only; 54
        # halvings leave two adjacent floats around 1/3, and the next stops
        assert sizes[0] == (2 ** BISECT_DEPTH,)
        assert set(sizes[1:]) == {(2 ** BISECT_DEPTH - 1,)}
        assert len(sizes) == math.ceil(55 / BISECT_DEPTH)

    def test_exact_zero_ends_at_once(self):
        assert bisect_root(lambda x: x - 0.5, 0.0, 1.0) == (0.5, 0.5)

    def test_reference_stops_at_the_first_exact_zero(self):
        calls = []

        def fn(x):
            calls.append(x)
            return x - 0.5

        assert reference_bisect_root(fn, 0.0, 1.0) == (0.5, 0.5)
        assert calls == [0.0, 0.5]

    def test_decreasing_function_to_a_target(self):
        root = math.sqrt(0.5)
        br = bisect_root(lambda x: 1.0 - x * x, 0.0, 1.0, target=0.5)
        assert br.lo <= root <= br.hi
        assert np.nextafter(br.lo, 1.0) == br.hi
        assert br.mid in (br.lo, br.hi)

    def test_lower_end_keeps_the_side_of_the_start(self):
        for start in (-1.0, 1.0):
            br = bisect_root(lambda t, s=start: np.where(t < 0.3, s, -s), 0.0, 1.0)
            assert br.lo < 0.3 <= br.hi
            assert np.nextafter(br.lo, 1.0) == br.hi

    def test_non_finite_value_ends_at_once(self):
        br = bisect_root(lambda x: np.where(x < 0.5, -1.0, np.nan), 0.0, 1.0)
        assert br == (0.5, 0.5)


class TestScanShapeDispatch:
    """For strictly increasing h, clear scans across all weight pairs
    v1 < v2 line up exactly with convexity of h."""

    CONVEX = [
        (lambda x: np.asarray(x) ** 2, (0.0, 1.0)),
        (lambda x: np.exp(np.asarray(x)), (0.0, 1.0)),
    ]
    NON_CONVEX = [
        (lambda x: np.sqrt(np.asarray(x)), (1.0, 2.0)),       # concave increasing
        (lambda x: np.asarray(x) ** 3, (-1.0, 1.0)),          # mixed increasing
    ]

    def _pairs(self):
        grid = [0.1 * k for k in range(1, 10)]
        near = [(v, v + 0.05) for v in (0.3, 0.45, 0.6)]
        return [(v1, v2) for v1 in grid for v2 in grid if v1 < v2] + near

    def test_convex_scans_clear_for_every_increasing_weight_pair(self):
        for h, dom in self.CONVEX:
            for v1, v2 in self._pairs():
                assert collision_scan(h, dom, v1, v2, 16).outcome is ScanOutcome.CLEAR

    def test_non_convex_fails_for_some_increasing_weight_pair(self):
        for h, dom in self.NON_CONVEX:
            outcomes = {
                collision_scan(h, dom, v1, v2, 16).outcome for v1, v2 in self._pairs()
            }
            assert ScanOutcome.COLLISION in outcomes
