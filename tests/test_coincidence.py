import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from intervalorders import (
    AlphaBetaOrder,
    GeneratedPairOrder,
    Interval,
    Ordering,
    SchurClass,
    compare,
    exponential_mean,
    identity,
    k_alpha_crossover,
    k_mean,
    logit_mean,
    midpoint_order_coincidence,
    negated_log,
    orders_coincide,
    power,
    projection_disagreement_witness,
    schur_classify,
    schur_pair_mean,
    tnorm,
)
from order_reference import reference_orders_coincide

# the running example: A averages squared endpoints, B averages square roots
PAIR_U1, PAIR_X1 = Interval(0.36, 0.82), Interval(0.08, 0.92)
PAIR_U2, PAIR_X2 = Interval(0.27, 0.71), Interval(0.57, 0.59)


def square_sqrt_order() -> GeneratedPairOrder:
    return GeneratedPairOrder(
        schur_pair_mean(power(2.0)), schur_pair_mean(power(0.5)),
        verify_admissible=False,
    )


class TestCrossover:
    def test_first_nested_pair(self):
        assert k_alpha_crossover(PAIR_U1, PAIR_X1) == pytest.approx(14 / 19, abs=1e-10)

    def test_second_pair(self):
        assert k_alpha_crossover(PAIR_U2, PAIR_X2) == pytest.approx(5 / 7, abs=1e-10)

    def test_dominating_pair_has_none(self):
        assert k_alpha_crossover(Interval(0.1, 0.2), Interval(0.3, 0.4)) is None

    def test_identical_intervals_have_none(self):
        u = Interval(0.3, 0.6)
        assert k_alpha_crossover(u, u) is None

    @staticmethod
    def exact_root(u, x):
        """The root of the projection gap with the endpoint differences as
        floats, then solved in exact arithmetic."""
        g0, g1 = Fraction(u.lo - x.lo), Fraction(u.hi - x.hi)
        return float(g0 / (g0 - g1))

    def assert_near_exact(self, ends, swap):
        # the outer interval of four sorted ends against the inner one: their
        # projections cross unless two ends coincide
        a, b, c, d = sorted(ends)
        u, x = Interval(a, d), Interval(b, c)
        if swap:
            u, x = x, u
        g0, g1 = u.lo - x.lo, u.hi - x.hi
        assume(g0 != 0.0 and g1 != 0.0)
        exact = self.exact_root(u, x)
        # one rounding each in g0 - g1 and in the division: under 1.5 ulps
        assert abs(k_alpha_crossover(u, x) - exact) <= 2 * math.ulp(exact)

    @given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4), st.booleans())
    def test_float_intervals_near_exact_root(self, ends, swap):
        self.assert_near_exact(ends, swap)

    @given(st.integers(1, 1000).flatmap(
        lambda r: st.lists(st.integers(0, r).map(lambda i: i / r), min_size=4, max_size=4)),
        st.booleans())
    def test_grid_intervals_near_exact_root(self, ends, swap):
        self.assert_near_exact(ends, swap)

    def test_benchmark_coincide_witness_is_exact(self):
        # the R=140 witness of x^2/sqrt vs (0.7, 1): both gaps are exact
        # floats, and the root lies one ulp below 0.75
        u, x = Interval(0.0, 0.04285714285714286), Interval(0.02142857142857143, 0.03571428571428571)
        assert k_alpha_crossover(u, x) == self.exact_root(u, x) == 0.7499999999999999

    def test_shared_endpoint_gives_unit_end(self):
        assert k_alpha_crossover(Interval(0.2, 0.5), Interval(0.2, 0.7)) == 0.0
        assert k_alpha_crossover(Interval(0.1, 0.7), Interval(0.2, 0.7)) == 1.0


class TestOrdersCoincide:
    def test_disagreement_below_first_threshold(self):
        rep = orders_coincide(square_sqrt_order(), AlphaBetaOrder(0.70, 1.0),
                              resolution=60, candidates=[(PAIR_U1, PAIR_X1)])
        assert not rep.coincide
        assert rep.witness.u == PAIR_U1 and rep.witness.x == PAIR_X1
        assert rep.witness.first is Ordering.LESS
        assert rep.witness.second is Ordering.GREATER
        assert rep.alpha_thresholds[0] == pytest.approx(14 / 19, abs=1e-10)

    def test_disagreement_above_second_threshold(self):
        rep = orders_coincide(square_sqrt_order(), AlphaBetaOrder(0.72, 1.0),
                              resolution=60, candidates=[(PAIR_U2, PAIR_X2)])
        assert not rep.coincide
        assert rep.witness.u == PAIR_U2 and rep.witness.x == PAIR_X2
        assert rep.alpha_thresholds[0] == pytest.approx(5 / 7, abs=1e-10)

    def test_grid_scan_finds_disagreement_without_candidates(self):
        rep = orders_coincide(square_sqrt_order(), AlphaBetaOrder(0.70, 1.0),
                              resolution=50)
        assert not rep.coincide
        # every reported witness must disagree strictly when re-compared
        w = rep.witness
        s1 = compare(square_sqrt_order(), w.u, w.x)
        s2 = compare(AlphaBetaOrder(0.70, 1.0), w.u, w.x)
        assert {s1, s2} == {Ordering.LESS, Ordering.GREATER}

    def test_reduced_projection_orders_coincide(self):
        rep = orders_coincide(AlphaBetaOrder(0.5, 1.0), AlphaBetaOrder(0.5, 0.9),
                              resolution=50)
        assert rep.coincide
        assert rep.disagreement_count == 0

    def test_disagreement_at_every_alpha_in_band(self):
        order = square_sqrt_order()
        for alpha in (0.70, 0.71, 0.72, 0.73, 0.74):
            rep = orders_coincide(order, AlphaBetaOrder(alpha, 1.0), resolution=60,
                                  candidates=[(PAIR_U1, PAIR_X1), (PAIR_U2, PAIR_X2)])
            assert not rep.coincide, f"expected a disagreement at alpha={alpha}"

    def test_collect_all_returns_each_disagreement(self):
        rep = orders_coincide(AlphaBetaOrder(0.0, 1.0), AlphaBetaOrder(1.0, 0.0),
                              resolution=50, collect_all=True, max_collected=200)
        assert not rep.coincide
        assert 0 < len(rep.disagreements) <= 200
        assert rep.disagreement_count >= len(rep.disagreements)


# strict disagreements; strict ones beyond 10^5; ties in one order only; none
COINCIDE_PAIRS = {
    "square-sqrt-vs-0.7": lambda: (square_sqrt_order(), AlphaBetaOrder(0.7, 1.0)),
    "lexicographic-vs-antilexicographic": lambda: (AlphaBetaOrder(0.0, 1.0),
                                                    AlphaBetaOrder(1.0, 0.0)),
    "midpoint-twice-vs-0.5": lambda: (
        GeneratedPairOrder(k_mean(0.5), k_mean(0.5), verify_admissible=False),
        AlphaBetaOrder(0.5, 1.0)),
    "reduced-projections": lambda: (AlphaBetaOrder(0.5, 1.0), AlphaBetaOrder(0.5, 0.9)),
}


class TestOrdersCoincideMatchesTwoTableReference:
    """The blockwise scan of tie-class keys reports exactly what the two n x n
    sign tables reported: count, witness, thresholds and collected pairs."""

    @pytest.mark.parametrize("pair", list(COINCIDE_PAIRS), ids=list(COINCIDE_PAIRS))
    @pytest.mark.parametrize("resolution", [50, 60])
    def test_reports_equal(self, pair, resolution):
        order1, order2 = COINCIDE_PAIRS[pair]()
        for max_collected in (None, 7, 200, 100000):
            kwargs = ({} if max_collected is None
                      else {"collect_all": True, "max_collected": max_collected})
            rep = orders_coincide(order1, order2, resolution=resolution, **kwargs)
            ref = reference_orders_coincide(order1, order2, resolution, **kwargs)
            assert rep == ref, (pair, resolution, max_collected)

    def test_memory_stays_linear(self):
        # the two 5151 x 5151 sign tables alone took over 50 MiB
        order1, order2 = square_sqrt_order(), AlphaBetaOrder(0.7, 1.0)
        tracemalloc.start()
        try:
            rep = orders_coincide(order1, order2, resolution=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not rep.coincide
        assert peak < 48 * 2**20


class TestSchurClassify:
    def test_square_pair_mean_strictly_convex(self):
        assert schur_classify(schur_pair_mean(power(2.0))) \
            is SchurClass.STRICTLY_SCHUR_CONVEX

    def test_sqrt_pair_mean_strictly_concave(self):
        assert schur_classify(schur_pair_mean(power(0.5))) \
            is SchurClass.STRICTLY_SCHUR_CONCAVE

    def test_midpoint_projection_constant_on_diagonals(self):
        # both classes hold non-strictly; the convex label is reported
        cls = schur_classify(k_mean(0.5))
        assert cls is SchurClass.SCHUR_CONVEX
        assert not cls.is_strict

    def test_upper_projection_strictly_convex(self):
        assert schur_classify(k_mean(1.0)) is SchurClass.STRICTLY_SCHUR_CONVEX

    def test_lower_projection_strictly_concave(self):
        assert schur_classify(k_mean(0.0)) is SchurClass.STRICTLY_SCHUR_CONCAVE

    def test_product_tnorm_concave_from_scan(self):
        cls = schur_classify(tnorm(negated_log()))
        assert cls is SchurClass.SCHUR_CONCAVE
        assert not cls.is_strict  # the scan never certifies strictness

    def test_skewed_exponential_mean_is_neither(self):
        # along a fixed endpoint sum this mean rises then falls
        assert schur_classify(exponential_mean(3.0, 0.3)) is SchurClass.NEITHER

    def test_strictness_matches_generator_shape_for_builtins(self):
        for gamma, expected in [(2.0, SchurClass.STRICTLY_SCHUR_CONVEX),
                                (3.0, SchurClass.STRICTLY_SCHUR_CONVEX),
                                (0.5, SchurClass.STRICTLY_SCHUR_CONCAVE),
                                (0.25, SchurClass.STRICTLY_SCHUR_CONCAVE)]:
            assert schur_classify(schur_pair_mean(power(gamma))) is expected
        assert schur_classify(schur_pair_mean(identity())) is SchurClass.SCHUR_CONVEX


class TestMidpointCoincidence:
    def test_square_pair_mean_matches_upper_tiebreak(self):
        rep = midpoint_order_coincidence(schur_pair_mean(power(2.0)), resolution=60)
        assert rep.coincide
        assert rep.certainty == "proved"

    def test_sqrt_pair_mean_matches_lower_tiebreak(self):
        rep = midpoint_order_coincidence(schur_pair_mean(power(0.5)), resolution=60)
        assert rep.coincide
        assert rep.certainty == "proved"

    def test_upper_projection_as_tiebreaker(self):
        rep = midpoint_order_coincidence(k_mean(1.0), resolution=60)
        assert rep.coincide
        assert rep.certainty == "proved"

    def test_rejects_collision_pair(self):
        with pytest.raises(ValueError):
            midpoint_order_coincidence(logit_mean(0.5), resolution=60)


class TestProjectionDisagreement:
    def _verify(self, u, x, alpha, beta, f_gamma, g_gamma):
        gen_order = GeneratedPairOrder(
            schur_pair_mean(power(f_gamma)), schur_pair_mean(power(g_gamma)),
            verify_admissible=False,
        )
        proj_order = AlphaBetaOrder(alpha, beta)
        assert compare(gen_order, u, x) is Ordering.LESS
        assert compare(proj_order, u, x) is Ordering.GREATER

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5])
    def test_convex_branch(self, alpha):
        u, x = projection_disagreement_witness(power(2.0), alpha, 1.0)
        assert u != x
        self._verify(u, x, alpha, 1.0, 2.0, 0.5)

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    def test_concave_branch(self, alpha):
        u, x = projection_disagreement_witness(power(0.5), alpha, 0.25 if alpha == 1.0 else 0.0)
        assert u != x
        self._verify(u, x, alpha, 0.25 if alpha == 1.0 else 0.0, 0.5, 2.0)

    def test_rejects_equal_weights(self):
        with pytest.raises(ValueError):
            projection_disagreement_witness(power(2.0), 0.5, 0.5)

    def test_rejects_shape_weight_mismatch(self):
        with pytest.raises(ValueError):
            projection_disagreement_witness(power(2.0), 0.8, 1.0)
        with pytest.raises(ValueError):
            projection_disagreement_witness(power(0.5), 0.2, 1.0)
