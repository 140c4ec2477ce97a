import itertools
import random
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from intervalorders import (
    AggregationFunction,
    AlphaBetaOrder,
    GeneratedPairOrder,
    Interval,
    KProjection,
    Ordering,
    OrderSpecError,
    PartialComparison,
    compare,
    exponential_mean,
    interval_grid,
    k_alpha_crossover,
    k_mean,
    negated_log,
    negated_log_complement,
    order_from_config,
    orders_coincide,
    partial_compare,
    power,
    rank_indices,
    refines_interval_order,
    schur_pair_mean,
    sign_matrix,
    sort_intervals,
    tconorm,
    tie_classes,
    tnorm,
)
from order_reference import (
    has_near_tie_chain,
    reference_compare,
    reference_rank,
    reference_rank_indices,
    reference_sign_matrix,
    reference_tie_classes,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def example_pair_order() -> GeneratedPairOrder:
    return GeneratedPairOrder(
        schur_pair_mean(power(2.0)), schur_pair_mean(power(0.5)),
        verify_admissible=False,
    )


class TestAlphaBetaSpec:
    def test_rejects_equal_weights(self):
        with pytest.raises(OrderSpecError):
            AlphaBetaOrder(0.5, 0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(OrderSpecError):
            AlphaBetaOrder(-0.1, 1.0)


class TestCompare:
    def test_midpoint_tie_broken_by_upper_endpoint(self):
        order = AlphaBetaOrder(0.5, 1.0)
        assert compare(order, Interval(0.3, 0.5), Interval(0.2, 0.6)) is Ordering.LESS

    def test_reflexive_equal(self):
        for order in (AlphaBetaOrder(0.5, 1.0), example_pair_order()):
            u = Interval(0.17, 0.54)
            assert compare(order, u, u) is Ordering.EQUAL

    def test_nested_pair_under_generated_order(self):
        order = example_pair_order()
        assert compare(order, Interval(0.36, 0.82), Interval(0.08, 0.92)) is Ordering.LESS

    def test_greater_direction(self):
        order = AlphaBetaOrder(0.0, 1.0)
        assert compare(order, Interval(0.4, 0.5), Interval(0.2, 0.9)) is Ordering.GREATER


class TestSort:
    def test_lexicographic_example(self):
        order = AlphaBetaOrder(0.0, 1.0)
        items = [Interval(0.2, 0.9), Interval(0.2, 0.3), Interval(0.1, 1.0)]
        assert sort_intervals(order, items) == [
            Interval(0.1, 1.0), Interval(0.2, 0.3), Interval(0.2, 0.9),
        ]

    def test_antilexicographic_example(self):
        order = AlphaBetaOrder(1.0, 0.0)
        items = [Interval(0.2, 0.9), Interval(0.2, 0.3)]
        assert sort_intervals(order, items) == [Interval(0.2, 0.3), Interval(0.2, 0.9)]

    def test_empty(self):
        assert sort_intervals(AlphaBetaOrder(0.0, 1.0), []) == []

    def test_rank_indices_follow_sort(self):
        order = AlphaBetaOrder(0.0, 1.0)
        items = [Interval(0.2, 0.9), Interval(0.2, 0.3), Interval(0.1, 1.0)]
        assert rank_indices(order, *_arrays(items)).tolist() == [2, 1, 0]

    def test_sort_is_stable_and_deterministic(self):
        order = AlphaBetaOrder(0.5, 1.0)
        items = [Interval(k / 40, min(1.0, k / 40 + 0.3)) for k in range(40)]
        once = sort_intervals(order, items)
        again = sort_intervals(order, list(items))
        assert once == again


class TestRefinement:
    def test_projection_orders_refine(self):
        assert refines_interval_order(AlphaBetaOrder(0.5, 1.0), 25)
        assert refines_interval_order(AlphaBetaOrder(1.0, 0.0), 25)

    def test_generated_pair_refines(self):
        assert refines_interval_order(example_pair_order(), 25)

    def test_refinement_alone_does_not_certify_admissibility(self):
        # a pair using the same aggregator twice still refines the partial
        # order, yet it collapses distinct intervals to Equal
        degenerate = GeneratedPairOrder(k_mean(0.5), k_mean(0.5), verify_admissible=False)
        assert refines_interval_order(degenerate, 25)
        assert compare(degenerate, Interval(0.3, 0.7), Interval(0.2, 0.8)) is Ordering.EQUAL

    def test_a_non_monotone_first_stage_does_not_refine(self):
        # A falls in lo below hi = 1/2: [0, 0.5] lies below [0.45, 0.5]
        # componentwise, yet A ranks it above
        dip = AggregationFunction("dip", object(),
                                  lambda lo, hi: np.where(hi > 0.5, hi, hi * (1 - lo)))
        order = GeneratedPairOrder(dip, k_mean(1.0), verify_admissible=False)
        assert compare(order, Interval(0.0, 0.5), Interval(0.45, 0.5)) is Ordering.GREATER
        assert not refines_interval_order(order, 20)

    def test_rejects_low_resolution(self):
        with pytest.raises(ValueError):
            refines_interval_order(AlphaBetaOrder(0.5, 1.0), 10)


class TestOrderLaws:
    SPECS = [
        ("lexicographic", AlphaBetaOrder(0.0, 1.0)),
        ("midpoint-then-upper", AlphaBetaOrder(0.5, 1.0)),
        ("generated-pair", None),  # placeholder, built lazily
    ]

    def _spec(self, name):
        for label, spec in self.SPECS:
            if label == name:
                return example_pair_order() if spec is None else spec
        raise KeyError(name)

    @pytest.mark.parametrize("name", [label for label, _ in SPECS])
    def test_totality_and_antisymmetry_on_grid(self, name):
        order = self._spec(name)
        lo, hi = interval_grid(40)
        s = sign_matrix(order, lo, hi)
        assert set(np.unique(s)).issubset({-1, 0, 1})
        eq = np.argwhere(s == 0)
        assert np.all(eq[:, 0] == eq[:, 1])  # Equal only on the diagonal

    @pytest.mark.parametrize("name", [label for label, _ in SPECS])
    def test_transitivity_on_seeded_triples(self, name):
        order = self._spec(name)
        rng = np.random.default_rng(42)
        n = 2000
        raw = rng.uniform(size=(n, 3, 2))
        lo = raw.min(axis=2).reshape(-1)
        hi = raw.max(axis=2).reshape(-1)
        p, q = order.stage_values(lo, hi)
        p = p.reshape(n, 3)
        q = q.reshape(n, 3)

        def sgn(i, j):
            dp = p[:, i] - p[:, j]
            dq = q[:, i] - q[:, j]
            out = np.where(np.abs(dp) > 1e-12, np.sign(dp),
                           np.where(np.abs(dq) > 1e-12, np.sign(dq), 0.0))
            return out

        le_uv = sgn(0, 1) <= 0
        le_vz = sgn(1, 2) <= 0
        le_uz = sgn(0, 2) <= 0
        assert np.all(~(le_uv & le_vz) | le_uz)

    @given(unit, unit, unit, unit)
    @settings(max_examples=50)
    def test_comparisons_respect_componentwise_order(self, a, b, c, d):
        order = AlphaBetaOrder(0.5, 1.0)
        u = Interval(min(a, b), max(a, b))
        x = Interval(min(c, d), max(c, d))
        if partial_compare(u, x) is PartialComparison.LESS_OR_EQUAL:
            assert compare(order, u, x) is not Ordering.GREATER


class TestProjectionReduction:
    """With alpha fixed, any larger beta induces the same order as beta = 1,
    and any smaller beta the same order as beta = 0."""

    def test_larger_beta_collapses_to_one(self):
        lo, hi = interval_grid(30)
        for alpha, beta in [(0.3, 0.7), (0.5, 0.9), (0.2, 0.4)]:
            s_ab = sign_matrix(AlphaBetaOrder(alpha, beta), lo, hi)
            s_a1 = sign_matrix(AlphaBetaOrder(alpha, 1.0), lo, hi)
            assert np.array_equal(s_ab, s_a1)

    def test_smaller_beta_collapses_to_zero(self):
        lo, hi = interval_grid(30)
        for alpha, beta in [(0.7, 0.3), (0.5, 0.1), (0.9, 0.6)]:
            s_ab = sign_matrix(AlphaBetaOrder(alpha, beta), lo, hi)
            s_a0 = sign_matrix(AlphaBetaOrder(alpha, 0.0), lo, hi)
            assert np.array_equal(s_ab, s_a0)


class TestConstructionFlag:
    def test_collision_pair_rejected_at_construction(self):
        with pytest.raises(OrderSpecError):
            GeneratedPairOrder(k_mean(0.5), k_mean(0.5))

    @pytest.mark.parametrize("w", [0.269, 0.27])
    def test_pair_just_past_the_weight_threshold_is_rejected(self, w):
        # K_w and the w=1/2 mean of e^(-x) collide for w above 0.2689; the
        # weight band excludes the pair with a witness near the corner
        # [0, 1], where the verifying oracle finds none at w = 0.269
        with pytest.raises(OrderSpecError, match="rule weighted-collision"):
            GeneratedPairOrder(k_mean(w), exponential_mean(-1.0, 0.5))

    def test_verification_can_be_skipped(self):
        order = GeneratedPairOrder(k_mean(0.5), k_mean(0.5), verify_admissible=False)
        assert order.verdict is None

    def test_admissible_pair_keeps_verdict(self):
        order = GeneratedPairOrder(k_mean(0.3), k_mean(0.7))
        assert order.verdict.rule == "projection-pair"


class TestConfig:
    def test_alpha_beta_config(self):
        order = order_from_config({"kind": "alpha_beta", "alpha": 0.5, "beta": 1.0})
        assert isinstance(order, AlphaBetaOrder)

    def test_pair_config_with_verification(self):
        spec = {
            "kind": "pair",
            "a": {"family": "schur_pair", "f": {"kind": "power", "gamma": 2.0}},
            "b": {"family": "schur_pair", "f": {"kind": "power", "gamma": 0.5}},
        }
        order = order_from_config(spec)
        assert isinstance(order, GeneratedPairOrder)

    def test_pair_config_rejects_collision_pair(self):
        spec = {
            "kind": "pair",
            "a": {"family": "quasi_linear", "generator": {"kind": "logarithm"},
                  "weight": 0.3},
            "b": {"family": "quasi_linear", "generator": {"kind": "logarithm"},
                  "weight": 0.7},
        }
        with pytest.raises(OrderSpecError):
            order_from_config(spec)

    def test_unknown_kind(self):
        with pytest.raises(OrderSpecError):
            order_from_config({"kind": "total"})


def product_probabilistic_sum_order() -> GeneratedPairOrder:
    return GeneratedPairOrder(tnorm(negated_log()), tconorm(negated_log_complement()),
                              verify_admissible=False)


DIFFERENTIAL_ORDERS = [
    ("lexicographic", lambda: AlphaBetaOrder(0.0, 1.0)),
    ("antilexicographic", lambda: AlphaBetaOrder(1.0, 0.0)),
    ("midpoint-then-upper", lambda: AlphaBetaOrder(0.5, 1.0)),
    ("midpoint-then-lower", lambda: AlphaBetaOrder(0.5, 0.0)),
    ("projection-0.3-0.9", lambda: AlphaBetaOrder(0.3, 0.9)),
    ("square-sqrt-pair", example_pair_order),
    ("product-probabilistic-sum", product_probabilistic_sum_order),
]
ORDER_IDS = [name for name, _ in DIFFERENTIAL_ORDERS]
ORDER_MAKERS = [make for _, make in DIFFERENTIAL_ORDERS]


def _ulp_shift(v: float, k: int) -> float:
    bits = struct.unpack("<q", struct.pack("<d", v))[0] + k
    return min(1.0, max(0.0, struct.unpack("<d", struct.pack("<q", bits))[0]))


def quantised_items(rng: random.Random, n: int) -> list[Interval]:
    """1/100-quantised intervals: exact duplicates and projection ties."""
    out = []
    for _ in range(n):
        i, j = sorted((rng.randint(0, 100), rng.randint(0, 100)))
        out.append(Interval(i / 100, j / 100))
    return out


def ulp_perturbed_items(rng: random.Random, n: int) -> list[Interval]:
    """Quantised intervals whose endpoints moved by a few ulps: near-ties."""
    out = []
    for z in quantised_items(rng, n):
        lo, hi = _ulp_shift(z.lo, rng.randint(-3, 3)), _ulp_shift(z.hi, rng.randint(-3, 3))
        out.append(Interval(min(lo, hi), max(lo, hi)))
    return out


def degenerate_items(rng: random.Random, n: int) -> list[Interval]:
    """Point intervals [a, a] mixed with wide ones sharing their projections."""
    out = []
    for _ in range(n):
        a = rng.randint(0, 50) / 50
        out.append(Interval(a, a))
        d = rng.randint(0, 10) / 100
        out.append(Interval(max(0.0, a - d), min(1.0, a + d)))
    return out


def _arrays(items):
    return (np.array([z.lo for z in items], dtype=float),
            np.array([z.hi for z in items], dtype=float))


def assert_matches_reference(order, items):
    lo, hi = _arrays(items)
    assert rank_indices(order, lo, hi).tolist() == reference_rank(order, items)
    assert np.array_equal(sign_matrix(order, lo, hi), reference_sign_matrix(order, lo, hi))
    rng = random.Random(len(items))
    for _ in range(50):
        u, x = rng.choice(items), rng.choice(items)
        assert compare(order, u, x) is reference_compare(order, u, x)


endpoint = st.one_of(unit, st.integers(0, 100).map(lambda i: i / 100))
interval = st.tuples(endpoint, endpoint).map(lambda t: Interval(min(t), max(t)))


class TestTieClassesMatchPairwiseReference:
    """Away from near-tie chains, tie classes give exactly the answers of the
    pairwise-tolerance comparator and its cmp_to_key sort."""

    @given(st.lists(interval, min_size=1, max_size=14), st.sampled_from(ORDER_MAKERS))
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_draws(self, items, make):
        order = make()
        assume(not has_near_tie_chain(order, *_arrays(items)))
        assert_matches_reference(order, items)

    @pytest.mark.parametrize("make", ORDER_MAKERS, ids=ORDER_IDS)
    @pytest.mark.parametrize("family", [quantised_items, ulp_perturbed_items, degenerate_items])
    def test_named_families(self, make, family):
        order = make()
        items = family(random.Random(17), 150)
        assert not has_near_tie_chain(order, *_arrays(items))
        assert_matches_reference(order, items)

    @pytest.mark.parametrize("make", ORDER_MAKERS, ids=ORDER_IDS)
    @pytest.mark.parametrize("resolution", [30, 40])
    def test_sign_matrix_on_grid(self, make, resolution):
        order = make()
        lo, hi = interval_grid(resolution)
        assert np.array_equal(sign_matrix(order, lo, hi), reference_sign_matrix(order, lo, hi))

    def test_non_finite_stage_values_rejected(self):
        with pytest.raises(OrderSpecError):
            tie_classes(AlphaBetaOrder(0.5, 1.0), np.array([0.1, np.nan]), np.array([0.2, 0.3]))


class GivenStages:
    """A stand-in order whose stage values are the arrays it is given: the
    first stage is ``lo`` and the second ``hi``."""

    def stage_values(self, lo, hi):
        return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)


@st.composite
def stage_column(draw, n: int):
    """n stage values drawn around a few bases: exact duplicates, -0.0,
    chains of 0.9e-12 steps (near ties whose ends lie further apart than
    ``TIE_TOL``), and neighbours a few ulps apart."""
    bases = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]),
                                    st.floats(-1.0, 1.0)), min_size=1, max_size=4))
    out = []
    for _ in range(n):
        v, k = draw(st.sampled_from(bases)), draw(st.integers(0, 4))
        step = draw(st.sampled_from(["same", "chain", "ulp"]))
        if step == "chain":
            v += k * 0.9e-12
        elif step == "ulp":
            for _ in range(k):
                v = np.nextafter(v, 2.0)
        out.append(float(v))
    return out


@st.composite
def stage_arrays(draw):
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):  # no two first stage values within TIE_TOL
        p = [i / 1e6 for i in draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n,
                                            unique=True))]
    else:
        p = draw(stage_column(n))
    return np.array(p), np.array(draw(stage_column(n)))


class TestTieClassesMatchTwoLexsortReference:
    """``tie_classes`` and ``rank_indices`` give the two-``lexsort`` keys and
    their stable sort, bit for bit."""

    @staticmethod
    def assert_matches(p, q):
        order = GivenStages()
        keys, want = tie_classes(order, p, q), reference_tie_classes(order, p, q)
        assert keys.dtype == want.dtype == np.int64
        assert keys.tolist() == want.tolist()
        ranked, want = rank_indices(order, p, q), reference_rank_indices(order, p, q)
        assert ranked.dtype == np.int64
        assert ranked.tolist() == want.tolist()

    @given(stage_arrays())
    @settings(max_examples=250, deadline=None)
    def test_hypothesis_draws(self, stages):
        self.assert_matches(*stages)

    @pytest.mark.parametrize("p,q", [
        ([], []),
        ([0.3], [0.1]),
        ([0.3, 0.1, 0.2], [0.0, 0.0, 0.0]),                    # no first stage ties
        ([0.5, 0.5, -0.0, 0.0], [0.2, 0.1, 0.3, 0.3]),         # duplicates and -0.0
        ([0.0, 1.8e-12, 0.9e-12], [0.0, 0.0, 0.0]),            # one class by a chain
        ([0.5, 0.5], [np.nextafter(0.3, 1.0), 0.3]),           # an ulp apart, in reverse
        ([0.5 + 0.9e-12, 0.5], [0.1, 0.1]),                    # a near tie in reverse
    ])
    def test_named_cases(self, p, q):
        self.assert_matches(np.array(p, dtype=float), np.array(q, dtype=float))

    def test_class_out_of_input_order_keeps_input_order(self):
        # one class whose second stage values lie an ulp apart in reverse
        # input order: sorted by value the class lists position 1 first
        q = np.array([np.nextafter(0.3, 1.0), 0.3])
        order = GivenStages()
        assert tie_classes(order, np.array([0.5, 0.5]), q).tolist() == [0, 0]
        assert rank_indices(order, np.array([0.5, 0.5]), q).tolist() == [0, 1]


class TestNearTieChain:
    """[0.3, 0.7] and two narrower intervals whose midpoints are 8e-13 and
    1.6e-12 higher: under (0.5, 1) each neighbour pair ties on the midpoint
    and is decided by the upper endpoint, while the ends differ on it."""

    A = Interval(0.3, 0.7)
    B = Interval(0.35 + 8e-13, 0.65 + 8e-13)
    C = Interval(0.4 + 1.6e-12, 0.6 + 1.6e-12)

    def test_pairwise_rule_cycles(self):
        order = AlphaBetaOrder(0.5, 1.0)
        assert compare(order, self.A, self.B) is Ordering.GREATER
        assert compare(order, self.B, self.C) is Ordering.GREATER
        assert compare(order, self.A, self.C) is Ordering.LESS

    def test_ranking_is_independent_of_input_order(self):
        order = AlphaBetaOrder(0.5, 1.0)
        rankings = {tuple(sort_intervals(order, list(perm)))
                    for perm in itertools.permutations([self.A, self.B, self.C])}
        # one midpoint class, ordered by the upper endpoint
        assert rankings == {(self.C, self.B, self.A)}


weight = st.one_of(unit, st.sampled_from([0.0, 0.3, 0.5, 0.7, 0.73, 1.0]))


class TestAlphaBetaIsKPair:
    """The (alpha, beta)-order is the order generated by (K_alpha, K_beta)."""

    @given(st.lists(interval, max_size=20), weight, weight)
    @settings(max_examples=200, deadline=None)
    def test_stage_values_are_the_projections_bit_for_bit(self, items, alpha, beta):
        assume(alpha != beta)
        order = AlphaBetaOrder(alpha, beta)
        assert isinstance(order, GeneratedPairOrder)
        assert (order.a.descriptor, order.b.descriptor) == (KProjection(alpha), KProjection(beta))
        items = items + [Interval(1.0, 1.0), Interval(0.0, 1.0)]
        stages = order.stage_values(*_arrays(items))
        for got, w in zip(stages, (alpha, beta)):
            expected = [(1.0 - w) * z.lo + w * z.hi for z in items]
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected]

    @pytest.mark.parametrize("alpha_beta_first", [False, True])
    def test_coincidence_reports_the_alpha_threshold(self, alpha_beta_first):
        orders = [example_pair_order(), AlphaBetaOrder(0.7, 1.0)]
        if alpha_beta_first:
            orders.reverse()
        rep = orders_coincide(*orders, resolution=50)
        assert not rep.coincide
        assert rep.alpha_thresholds == (k_alpha_crossover(rep.witness.u, rep.witness.x),)
        # the same projections as a plain pair order: same scan, no alpha note
        plain = GeneratedPairOrder(k_mean(0.7), k_mean(1.0), verify_admissible=False)
        rep_plain = orders_coincide(*(plain if isinstance(o, AlphaBetaOrder) else o
                                      for o in orders), resolution=50)
        assert (rep_plain.witness, rep_plain.disagreement_count) == (rep.witness,
                                                                     rep.disagreement_count)
        assert rep_plain.alpha_thresholds == ()
