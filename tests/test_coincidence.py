import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from intervalorders import (
    AggregationFunction,
    AlphaBetaOrder,
    GeneratedPairOrder,
    Interval,
    Ordering,
    SchurClass,
    compare,
    exponential,
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
from intervalorders import coincidence
from intervalorders.coincidence import _disagreement_counts, _inversions
from intervalorders.intervals import interval_grid
from intervalorders.orders import _key_signs, tie_classes
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
    def test_rejects_resolution_below_50(self):
        with pytest.raises(ValueError, match="^resolution must be at least 50$"):
            orders_coincide(AlphaBetaOrder(0.0, 1.0), AlphaBetaOrder(1.0, 0.0), resolution=49)

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


def dense(values) -> np.ndarray:
    """Dense int64 ranks of the values, as ``tie_classes`` returns them."""
    return np.unique(np.asarray(values), return_inverse=True)[1].astype(np.int64).ravel()


def table_counts(k1, k2) -> tuple[int, int]:
    """Strict and tie-only disagreements from the full tables of key signs."""
    s1, s2 = _key_signs(k1, k1), _key_signs(k2, k2)
    upper = np.triu(np.ones(s1.shape, dtype=bool), k=1)
    strict = upper & (s1 == -s2) & (s1 != 0)
    return int(np.count_nonzero(strict)), int(np.count_nonzero(upper & (s1 != s2) & ~strict))


# few distinct values per array, so most pairs tie in one order or both
tied_keys = st.integers(1, 90).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 5), min_size=n, max_size=n),
    st.lists(st.integers(0, 5), min_size=n, max_size=n)))


class TestDisagreementCountsMatchSignTable:
    """The count from one sort equals the count over the table of key signs."""

    @settings(max_examples=300, deadline=None)
    @given(tied_keys)
    def test_heavy_ties(self, pair):
        k1, k2 = dense(pair[0]), dense(pair[1])
        assert _disagreement_counts(k1, k2) == table_counts(k1, k2)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 300).flatmap(
        lambda n: st.permutations(range(n)).map(lambda p: (n, p))))
    def test_permutations_against_pairwise_inversions(self, drawn):
        n, perm = drawn
        a = np.array(perm, dtype=np.int64)
        brute = int(np.count_nonzero(np.triu(a[:, None] > a[None, :], k=1)))
        assert _inversions(a) == brute
        assert _disagreement_counts(np.arange(n), a) == (brute, 0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 8), min_size=1, max_size=60))
    def test_ties_only_family(self, values):
        # k2 refines k1 in the same direction: no pair is ranked oppositely
        k1 = dense(values)
        k2 = np.argsort(np.argsort(k1, kind="stable"), kind="stable")
        strict, tie_only = _disagreement_counts(k1, k2)
        assert (strict, tie_only) == table_counts(k1, k2)
        assert strict == 0

    def test_single_interval(self):
        k = np.zeros(1, dtype=np.int64)
        assert _disagreement_counts(k, k) == (0, 0)

    @pytest.mark.parametrize("n", [2, 3, 255, 256, 257, 1000])
    def test_identical_and_reversed_keys(self, n):
        k = dense(np.arange(n) // 3)
        assert _disagreement_counts(k, k) == (0, 0)
        assert _disagreement_counts(k, k.max() - k) == table_counts(k, k.max() - k)

    @pytest.mark.parametrize("pair", list(COINCIDE_PAIRS), ids=list(COINCIDE_PAIRS))
    def test_grid_keys(self, pair):
        lo, hi = interval_grid(60)
        k1, k2 = (tie_classes(order, lo, hi) for order in COINCIDE_PAIRS[pair]())
        assert _disagreement_counts(k1, k2) == table_counts(k1, k2)


class BandOrder(GeneratedPairOrder):
    """Intervals ranked by the band of width 1/bands their K_w projection
    falls in, so whole bands tie in both stages."""

    def __init__(self, w: float, bands: int = 8):
        self.w, self.bands = w, bands

    def stage_values(self, lo, hi):
        band = np.floor(self.bands * ((1 - self.w) * lo + self.w * hi))
        return band, band


# every pair of orders here ties some grid pairs in one order only; the first
# and last also tie some in both, the first two rank some oppositely, the
# last two none
MIXED_PAIRS = {
    "bands-0.5-vs-bands-0.9": lambda: (BandOrder(0.5), BandOrder(0.9)),
    "bands-0.9-vs-0.3": lambda: (BandOrder(0.9), AlphaBetaOrder(0.3, 1.0)),
    "bands-0.5-vs-0.5": lambda: (BandOrder(0.5), AlphaBetaOrder(0.5, 0.0)),
    "bands-0.5-vs-finer-bands-0.5": lambda: (BandOrder(0.5), BandOrder(0.5, 16)),
}


class TestMixedTiesMatchTwoTableReference:
    @pytest.mark.parametrize("pair", list(MIXED_PAIRS), ids=list(MIXED_PAIRS))
    def test_reports_equal(self, pair):
        order1, order2 = MIXED_PAIRS[pair]()
        for max_collected in (None, 1, 7, 300):
            kwargs = ({} if max_collected is None
                      else {"collect_all": True, "max_collected": max_collected})
            rep = orders_coincide(order1, order2, resolution=50, **kwargs)
            ref = reference_orders_coincide(order1, order2, 50, **kwargs)
            assert rep == ref, (pair, max_collected)


# cells of key signs per block of coincidence._witness_cells
CELL_CAP = 2**20


def grid_row(lo, hi, z: Interval) -> int:
    """Position of the grid interval z in ``interval_grid`` order."""
    return int(np.flatnonzero((lo == z.lo) & (hi == z.hi))[0])


class TestWitnessScanStopsEarly:
    """Blocks grow 1, 2, 4, ... rows, so the scan ends with the block that
    holds the last wanted hit, after at most 2 (row + 1) rows."""

    @pytest.fixture
    def key_sign_calls(self, monkeypatch):
        calls = []

        def counting(ki, kj):
            calls.append(ki.size)
            return _key_signs(ki, kj)

        monkeypatch.setattr(coincidence, "_key_signs", counting)
        return calls

    @staticmethod
    def assert_scan_ends_at_row(calls, row):
        # two orders' signs per block, over the same rows
        assert calls[::2] == calls[1::2]
        blocks = calls[::2]
        scanned = sum(blocks)
        assert scanned - blocks[-1] <= row < scanned
        assert scanned <= 2 * (row + 1)

    def test_coinciding_pair_scans_no_block(self, key_sign_calls):
        midpoint_square = GeneratedPairOrder(k_mean(0.5), schur_pair_mean(power(2.0)),
                                             verify_admissible=False)
        rep = orders_coincide(midpoint_square, AlphaBetaOrder(0.5, 1.0), resolution=100)
        assert rep.coincide and rep.disagreement_count == 0
        assert key_sign_calls == []

    def test_scan_stops_at_the_block_of_the_first_strict_hit(self, key_sign_calls):
        rep = orders_coincide(square_sqrt_order(), AlphaBetaOrder(0.7, 1.0), resolution=140)
        lo, hi = interval_grid(140)
        self.assert_scan_ends_at_row(key_sign_calls, grid_row(lo, hi, rep.witness.u))

    def test_collection_stops_once_it_holds_max_collected(self, key_sign_calls):
        rep = orders_coincide(AlphaBetaOrder(0.0, 1.0), AlphaBetaOrder(1.0, 0.0),
                              resolution=60, collect_all=True, max_collected=7)
        assert len(rep.disagreements) == 7
        lo, hi = interval_grid(60)
        self.assert_scan_ends_at_row(key_sign_calls,
                                     grid_row(lo, hi, rep.disagreements[-1].u))

    @pytest.mark.parametrize("pair,resolution,max_collected", [
        ("lexicographic-vs-antilexicographic", 60, 300),
        ("lexicographic-vs-antilexicographic", 60, 100000),
        # every hit in the last rows: the scan passes row 511
        ("band-0.96-vs-0.5", 50, 1),
        ("band-0.96-vs-0.5", 50, 1000),
        # 10,011 columns: the cap stops the doubling after 64 rows
        ("band-0.96-vs-0.5", 140, 1),
    ])
    def test_blocks_double_until_the_cell_cap(self, key_sign_calls, pair, resolution,
                                              max_collected):
        make = COINCIDE_PAIRS.get(pair) or WITNESS_ROW_PAIRS[pair]
        rep = orders_coincide(*make(), resolution=resolution, collect_all=True,
                              max_collected=max_collected)
        lo, hi = interval_grid(resolution)
        self.assert_scan_ends_at_row(key_sign_calls,
                                     grid_row(lo, hi, rep.disagreements[-1].u))
        blocks = key_sign_calls[::2]
        starts = np.cumsum([0] + blocks[:-1])
        assert blocks[:7] == [2**k for k in range(len(blocks[:7]))]
        for k in range(1, len(blocks)):
            # rows times columns left stays within the cap; only the last
            # block may be cut short by the end of the grid
            cap = max(1, CELL_CAP // (lo.size - starts[k]))
            assert blocks[k] <= min(2 * blocks[k - 1], cap)
            if k < len(blocks) - 1:
                assert blocks[k] == min(2 * blocks[k - 1], cap)
        if resolution == 140:
            # the cap binds: the eighth block holds 106 rows, not 128
            assert blocks[7] == CELL_CAP // (lo.size - 127) < 128


class ReversedOrder(GeneratedPairOrder):
    """The (0.5, 1)-order turned upside down: every pair it does not tie is
    ranked opposite to (0.5, 1), row 0 of the grid included."""

    def __init__(self):
        pass

    def stage_values(self, lo, hi):
        return -0.5 * (lo + hi), -hi


class FlippedTieBreakOrder(GeneratedPairOrder):
    """The (0.5, 1)-order, except that intervals whose lower end lies in
    [first, last] break midpoint ties by -hi.  Pairs whose lower ends both
    lie below ``first`` are ranked as (0.5, 1) ranks them, so the first
    disagreement lies in a row with lo >= first."""

    def __init__(self, first: float, last: float):
        self.first, self.last = first, last

    def stage_values(self, lo, hi):
        band = (lo >= self.first) & (lo <= self.last)
        return 0.5 * (lo + hi), np.where(band, -hi, hi)


# first witness in row 0, mid-grid and in the last rows of the R=50 grid;
# the last pair ties some grid pairs in one order only and ranks none
# oppositely
WITNESS_ROW_PAIRS = {
    "reversed-vs-0.5": lambda: (ReversedOrder(), AlphaBetaOrder(0.5, 1.0)),
    "band-0.4-vs-0.5": lambda: (FlippedTieBreakOrder(0.4, 0.5), AlphaBetaOrder(0.5, 1.0)),
    "band-0.96-vs-0.5": lambda: (FlippedTieBreakOrder(0.96, 1.0), AlphaBetaOrder(0.5, 1.0)),
    "midpoint-twice-vs-0.5": COINCIDE_PAIRS["midpoint-twice-vs-0.5"],
}
MAX_COLLECTED = [1, 2, 3, 7, 255, 256, 257, 1000]


class TestGrowingScanMatchesTwoTableReference:
    """The growing row blocks report exactly what the two n x n sign tables
    report, whatever row the first witness is in and however many are
    collected."""

    @pytest.mark.parametrize("pair", list(WITNESS_ROW_PAIRS), ids=list(WITNESS_ROW_PAIRS))
    def test_reports_equal(self, pair):
        order1, order2 = WITNESS_ROW_PAIRS[pair]()
        for max_collected in [None, *MAX_COLLECTED]:
            kwargs = ({} if max_collected is None
                      else {"collect_all": True, "max_collected": max_collected})
            rep = orders_coincide(order1, order2, resolution=50, **kwargs)
            assert rep == reference_orders_coincide(order1, order2, 50, **kwargs), max_collected

    def test_rows_of_the_first_witnesses(self):
        lo, hi = interval_grid(50)
        rows = {pair: grid_row(lo, hi, orders_coincide(*make(), resolution=50).witness.u)
                for pair, make in WITNESS_ROW_PAIRS.items()}
        assert rows["reversed-vs-0.5"] == 0
        assert 0.25 * lo.size < rows["band-0.4-vs-0.5"] < 0.75 * lo.size
        assert rows["band-0.96-vs-0.5"] >= lo.size - 6

    def test_tie_only_pair_has_no_strict_disagreement(self):
        order1, order2 = WITNESS_ROW_PAIRS["midpoint-twice-vs-0.5"]()
        lo, hi = interval_grid(50)
        k1, k2 = (tie_classes(order, lo, hi) for order in (order1, order2))
        strict, tie_only = _disagreement_counts(k1, k2)
        assert strict == 0 and tie_only > 0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 20), min_size=4, max_size=4),
           st.sampled_from(MAX_COLLECTED))
    def test_alpha_beta_orders(self, weights, max_collected):
        a1, b1, a2, b2 = (k / 20 for k in weights)
        assume(a1 != b1 and a2 != b2)
        order1, order2 = AlphaBetaOrder(a1, b1), AlphaBetaOrder(a2, b2)
        kwargs = {"collect_all": True, "max_collected": max_collected}
        rep = orders_coincide(order1, order2, resolution=50, **kwargs)
        assert rep == reference_orders_coincide(order1, order2, 50, **kwargs)


class TestWitnessScanMemory:
    def test_early_witness_costs_a_few_rows(self):
        # 256-row blocks against every later column peaked at 10 MiB here
        tracemalloc.start()
        try:
            orders_coincide(square_sqrt_order(), AlphaBetaOrder(0.7, 1.0), resolution=140)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_late_witness_stays_within_the_cell_cap(self):
        # the scan passes nearly every row; 256-row blocks against every
        # later column peaked at 14.4 MiB here
        order1, order2 = WITNESS_ROW_PAIRS["band-0.96-vs-0.5"]()
        tracemalloc.start()
        try:
            orders_coincide(order1, order2, resolution=140)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


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

    def test_rejects_resolution_below_50(self):
        with pytest.raises(ValueError, match="^resolution must be at least 50$"):
            schur_classify(k_mean(0.3), resolution=49)

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
    @staticmethod
    def assert_proved_and_seen_on_the_grid(b, beta):
        rep = midpoint_order_coincidence(b, resolution=60)
        assert (rep.coincide, rep.certainty, rep.disagreement_count) == (True, "proved", 0)
        generated = GeneratedPairOrder(k_mean(0.5), b, verify_admissible=False)
        grid = orders_coincide(generated, AlphaBetaOrder(0.5, beta), resolution=60)
        assert grid.coincide and grid.disagreement_count == 0

    def test_square_pair_mean_matches_upper_tiebreak(self):
        self.assert_proved_and_seen_on_the_grid(schur_pair_mean(power(2.0)), 1.0)

    def test_sqrt_pair_mean_matches_lower_tiebreak(self):
        self.assert_proved_and_seen_on_the_grid(schur_pair_mean(power(0.5)), 0.0)

    def test_upper_projection_as_tiebreaker(self):
        self.assert_proved_and_seen_on_the_grid(k_mean(1.0), 1.0)

    def test_strict_class_scans_no_grid(self, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("a proved report needs no grid scan")

        monkeypatch.setattr(coincidence, "orders_coincide", no_scan)
        rep = midpoint_order_coincidence(schur_pair_mean(power(2.0)), resolution=100)
        assert rep.certainty == "proved"

    def test_non_strict_class_keeps_the_grid_scan(self):
        # the square mean without its registry kind: the diagonal scan
        # classifies it Schur-convex, not strictly
        b = schur_pair_mean(dataclasses.replace(power(2.0), kind=None, param=None))
        assert schur_classify(b) is SchurClass.SCHUR_CONVEX
        rep = midpoint_order_coincidence(b, resolution=60)
        assert (rep.coincide, rep.certainty, rep.disagreement_count) == (True, "grid", 0)

    def test_rejects_collision_pair(self):
        with pytest.raises(ValueError):
            midpoint_order_coincidence(logit_mean(0.5), resolution=60)

    def test_rejects_a_class_that_determines_no_projection(self):
        # one-to-one on each diagonal lo + hi = c, so the oracle finds no
        # collision with the midpoint, but Schur-convex for c < 1 and
        # Schur-concave from c = 1 on
        b = AggregationFunction("kinked", object(), lambda lo, hi: 0.5 * (lo + hi) + np.where(
            lo + hi < 1.0, 0.1, -0.1) * (hi - lo))
        with pytest.raises(ValueError) as err:
            midpoint_order_coincidence(b, resolution=60)
        assert str(err.value) == ("kinked: Schur classification neither does not determine "
                                  "a reference projection order")


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

    @pytest.mark.parametrize("f, alpha, message", [
        (power(2.0), -0.1, "projection weights must lie in [0,1]"),
        (power(-1.0), 0.3, "power(-1): need an increasing bijection with certified shape"),
        (exponential(1.0), 0.3, "exponential(1): need f(0) = 0 and f(1) = 1"),
        # strictly concave in the registry, affine in floats: the f-sums tie
        (power(math.nextafter(1.0, 0.0)), 0.5,
         "reflected(power(1)): convexity margin failed on the base pair (got "),
        (power(1.0 + 1e-9), 0.5, "power(1): disagreement margins too small (f-sum "),
    ], ids=["weight outside", "decreasing", "not onto [0,1]", "base tie", "small margins"])
    def test_rejects(self, f, alpha, message):
        with pytest.raises(ValueError) as err:
            projection_disagreement_witness(f, alpha, 1.0)
        assert str(err.value).startswith(message)

    def test_rejects_shape_weight_mismatch(self):
        with pytest.raises(ValueError):
            projection_disagreement_witness(power(2.0), 0.8, 1.0)
        with pytest.raises(ValueError):
            projection_disagreement_witness(power(0.5), 0.2, 1.0)
