import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from intervalorders import (
    AggregationError,
    DataError,
    DomainError,
    Interval,
    PartialComparison,
    interval_grid,
    k_mean,
    load_intervals,
    partial_compare,
    read_intervals_csv,
    write_ranked_csv,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def make_interval(a: float, b: float) -> Interval:
    return Interval(min(a, b), max(a, b))


class TestConstruction:
    def test_plain(self):
        z = Interval(0.2, 0.7)
        assert z.lo == 0.2 and z.hi == 0.7
        assert z.width == pytest.approx(0.5, abs=1e-15)
        assert not z.degenerate

    def test_degenerate_allowed(self):
        assert Interval(0.4, 0.4).degenerate

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(DomainError):
            Interval(0.6, 0.4)

    def test_clamps_tiny_overshoot(self):
        assert Interval(-1e-16, 1.0).lo == 0.0
        assert Interval(0.0, 1.0 + 1e-16).hi == 1.0

    def test_rejects_larger_overshoot(self):
        with pytest.raises(DomainError):
            Interval(-1e-13, 0.5)
        with pytest.raises(DomainError):
            Interval(0.5, 1.0 + 1e-13)
        with pytest.raises(DomainError):
            Interval(float("nan"), 0.5)


class TestProjection:
    def test_left_endpoint_at_zero_weight(self):
        assert k_mean(0.0)(Interval(0.23, 0.87)) == 0.23

    def test_right_endpoint_at_unit_weight(self):
        assert k_mean(1.0)(Interval(0.23, 0.87)) == 0.87

    def test_midpoint_value(self):
        assert k_mean(0.5)(Interval(0.36, 0.82)) == pytest.approx(0.59, abs=1e-15)

    def test_nested_pair_ties_at_crossover_weight(self):
        # the projections of these two intervals agree exactly at w = 14/19
        w = 14.0 / 19.0
        a = k_mean(w)(Interval(0.36, 0.82))
        b = k_mean(w)(Interval(0.08, 0.92))
        assert abs(a - b) <= 1e-12

    def test_rejects_weight_outside_unit(self):
        with pytest.raises(AggregationError):
            k_mean(-0.1)
        with pytest.raises(AggregationError):
            k_mean(1.1)

    def test_vectorized_matches_scalar(self):
        lo = np.array([0.1, 0.3, 0.0])
        hi = np.array([0.5, 0.9, 1.0])
        vals = k_mean(0.3).values(lo, hi)
        for k in range(3):
            assert vals[k] == k_mean(0.3)(Interval(lo[k], hi[k]))

    @given(unit, unit, unit)
    def test_projection_stays_inside(self, w, a, b):
        z = make_interval(a, b)
        p = k_mean(w)(z)
        assert z.lo - 1e-15 <= p <= z.hi + 1e-15

    @given(unit, unit, unit, unit, unit)
    def test_projection_monotone_under_dominance(self, w, a, b, c, d):
        u = make_interval(a, b)
        x = make_interval(min(u.lo + c * (1 - u.lo), 1.0),
                          min(u.hi + d * (1 - u.hi), 1.0))
        assert k_mean(w)(u) <= k_mean(w)(x) + 1e-12

    @given(unit, unit)
    def test_projection_degenerate_identity(self, w, a):
        assert k_mean(w)(Interval(a, a)) == pytest.approx(a, abs=1e-15)


class TestPartialCompare:
    def test_componentwise_dominance(self):
        assert partial_compare(Interval(0.2, 0.4), Interval(0.3, 0.5)) \
            is PartialComparison.LESS_OR_EQUAL

    def test_crossing_endpoints_incomparable(self):
        assert partial_compare(Interval(0.2, 0.6), Interval(0.3, 0.5)) \
            is PartialComparison.INCOMPARABLE

    def test_nested_pair_incomparable(self):
        assert partial_compare(Interval(0.36, 0.82), Interval(0.08, 0.92)) \
            is PartialComparison.INCOMPARABLE

    def test_equal(self):
        assert partial_compare(Interval(0.1, 0.2), Interval(0.1, 0.2)) \
            is PartialComparison.EQUAL

    def test_greater(self):
        assert partial_compare(Interval(0.5, 0.9), Interval(0.2, 0.8)) \
            is PartialComparison.GREATER_OR_EQUAL

    @given(unit, unit)
    def test_reflexive(self, a, b):
        z = make_interval(a, b)
        assert partial_compare(z, z) is PartialComparison.EQUAL

    @given(*(unit,) * 6)
    def test_transitive_on_samples(self, a, b, c, d, e, f):
        u, x, z = make_interval(a, b), make_interval(c, d), make_interval(e, f)
        le = PartialComparison.LESS_OR_EQUAL
        if partial_compare(u, x) in (le, PartialComparison.EQUAL) and \
           partial_compare(x, z) in (le, PartialComparison.EQUAL):
            assert partial_compare(u, z) in (le, PartialComparison.EQUAL)

    @given(*(unit,) * 4)
    def test_antisymmetric(self, a, b, c, d):
        u, x = make_interval(a, b), make_interval(c, d)
        if partial_compare(u, x) is PartialComparison.EQUAL:
            assert u == x


class TestExtendedAddition:
    def test_min_max_total(self):
        values = [-math.inf, -1.0, 0.0, 2.5, math.inf]
        assert max(values) == math.inf
        assert min(values) == -math.inf


class TestGrid:
    def test_counts_and_order(self):
        lo, hi = interval_grid(4)
        assert lo.size == 15  # (R+1)(R+2)/2
        assert np.all(lo <= hi)
        keys = list(zip(lo.tolist(), hi.tolist()))
        assert keys == sorted(keys)

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            interval_grid(0)


class TestFileFormats:
    def test_csv_roundtrip_with_header(self, tmp_path):
        p = tmp_path / "items.csv"
        p.write_text("lo,hi\n0.2,0.9\n0.2,0.3\n")
        lo, hi = read_intervals_csv(p)
        assert (lo.tolist(), hi.tolist()) == ([0.2, 0.2], [0.9, 0.3])

    def test_csv_without_header(self, tmp_path):
        p = tmp_path / "items.csv"
        p.write_text("0.1,1.0\n")
        lo, hi = read_intervals_csv(p)
        assert (lo.tolist(), hi.tolist()) == ([0.1], [1.0])

    def test_csv_byte_order_mark_keeps_first_row(self, tmp_path):
        p = tmp_path / "items.csv"
        p.write_bytes(b"\xef\xbb\xbf0.1,0.2\n0.3,0.4\n")
        lo, hi = read_intervals_csv(p)
        assert (lo.tolist(), hi.tolist()) == ([0.1, 0.3], [0.2, 0.4])

    def test_json_format(self, tmp_path):
        p = tmp_path / "items.json"
        p.write_text(json.dumps([[0.2, 0.9], [0.0, 0.5]]))
        lo, hi = load_intervals(p)
        assert (lo.tolist(), hi.tolist()) == ([0.2, 0.0], [0.9, 0.5])

    def test_json_byte_order_mark_dropped(self, tmp_path):
        p = tmp_path / "items.json"
        p.write_bytes(b"\xef\xbb\xbf[[0.1, 0.2], [0.3, 0.4]]")
        lo, hi = load_intervals(p)
        assert (lo.tolist(), hi.tolist()) == ([0.1, 0.3], [0.2, 0.4])

    def test_json_integer_too_large_for_a_float(self, tmp_path):
        p = tmp_path / "items.json"
        p.write_text(f"[[0.1, 0.2], [0.1, 1{'0' * 400}]]")
        with pytest.raises(DataError, match=r"entry 1: int too large to convert to float"):
            load_intervals(p)

    def test_ranked_csv_written_with_indices(self, tmp_path):
        p = tmp_path / "ranked.csv"
        lo, hi = np.array([0.2, 0.5, 0.1]), np.array([0.3, 0.6, 1.0])
        with open(p, "w", newline="") as fh:
            write_ranked_csv(fh, lo, hi, [2, 0])
        lines = p.read_text().splitlines()
        assert lines[0] == "index,lo,hi"
        assert lines[1].startswith("2,0.1,1.0")
        assert lines[2:] == ["0,0.2,0.3"]
