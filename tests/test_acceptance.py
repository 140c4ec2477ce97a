"""Acceptance suite: one test per criterion, each reporting a pass line.

Run with `pytest -v`; the per-criterion lines appear in the terminal summary
(and immediately with `pytest -s`).
"""

import math
import time

import numpy as np
import pytest

from intervalorders import (
    AlphaBetaOrder,
    GeneratedPairOrder,
    Interval,
    Outcome,
    ScanOutcome,
    collision_gap,
    collision_scan,
    composite,
    interval_grid,
    k_alpha_crossover,
    k_mean,
    midpoint_order_coincidence,
    negated_log,
    negated_log_complement,
    nilpotent_witness,
    one_minus,
    oracle_search,
    orders_coincide,
    identity,
    power,
    projection_disagreement_witness,
    refines_interval_order,
    schur_pair_mean,
    sign_matrix,
    tconorm,
    tnorm,
)
from intervalorders.battery import run_battery

from conftest import ACCEPTANCE_LINES


def report(n: int, description: str, elapsed: float) -> None:
    line = f"ACCEPTANCE {n}: PASS ({elapsed:.2f}s) {description}"
    ACCEPTANCE_LINES.append(line)
    print(line)


PAIR_U1, PAIR_X1 = Interval(0.36, 0.82), Interval(0.08, 0.92)
PAIR_U2, PAIR_X2 = Interval(0.27, 0.71), Interval(0.57, 0.59)


def square_sqrt_order() -> GeneratedPairOrder:
    return GeneratedPairOrder(
        schur_pair_mean(power(2.0)), schur_pair_mean(power(0.5)),
        verify_admissible=False,
    )


def test_criterion_1_running_example_exact():
    t0 = time.perf_counter()
    a = schur_pair_mean(power(2.0))

    assert a(PAIR_U1) == pytest.approx(0.401, abs=1e-12)
    assert a(PAIR_X1) == pytest.approx(0.4264, abs=1e-12)
    assert a(PAIR_U2) == pytest.approx(0.2885, abs=1e-12)
    assert a(PAIR_X2) == pytest.approx(0.3365, abs=1e-12)

    assert k_alpha_crossover(PAIR_U1, PAIR_X1) == pytest.approx(14 / 19, abs=1e-10)
    assert k_alpha_crossover(PAIR_U2, PAIR_X2) == pytest.approx(5 / 7, abs=1e-10)

    order = square_sqrt_order()
    candidates = [(PAIR_U1, PAIR_X1), (PAIR_U2, PAIR_X2)]

    rep70 = orders_coincide(order, AlphaBetaOrder(0.70, 1.0), resolution=60,
                            candidates=candidates)
    assert not rep70.coincide
    assert (rep70.witness.u, rep70.witness.x) == (PAIR_U1, PAIR_X1)
    # the second pair still agrees at 0.70: its flip weight lies above
    assert k_alpha_crossover(PAIR_U2, PAIR_X2) > 0.70

    rep73 = orders_coincide(order, AlphaBetaOrder(0.73, 1.0), resolution=60,
                            candidates=candidates)
    assert not rep73.coincide
    assert (rep73.witness.u, rep73.witness.x) in {
        (PAIR_U1, PAIR_X1), (PAIR_U2, PAIR_X2)
    }
    # at 0.73 both pairs disagree: 5/7 < 0.73 < 14/19
    rep73b = orders_coincide(order, AlphaBetaOrder(0.73, 1.0), resolution=60,
                             candidates=[(PAIR_U2, PAIR_X2)])
    assert (rep73b.witness.u, rep73b.witness.x) == (PAIR_U2, PAIR_X2)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "running-example values, crossover weights, and witnesses", elapsed)


BATTERY_ROWS = None


def _battery_rows():
    global BATTERY_ROWS
    if BATTERY_ROWS is None:
        BATTERY_ROWS = run_battery(resolution=200)
    return BATTERY_ROWS


def test_criterion_2_verdict_battery():
    t0 = time.perf_counter()
    rows = _battery_rows()
    elapsed = time.perf_counter() - t0
    mismatches = [r.case.label for r in rows if not r.agrees]
    assert mismatches == []
    assert len(rows) >= 60
    assert elapsed < 10.0
    report(2, f"verdict battery, {len(rows)} parameterized cases", elapsed)


def test_criterion_3_oracle_cross_check():
    rows = _battery_rows()
    t0 = time.perf_counter()
    for row in rows:
        if row.verdict.outcome is Outcome.ADMISSIBLE:
            found = oracle_search(row.case.a, row.case.b, resolution=200)
            assert found is None, f"oracle collision for {row.case.label}: {found}"
        elif row.verdict.outcome is Outcome.NOT_ADMISSIBLE:
            w = row.verdict.witness
            assert w is not None, f"no witness for {row.case.label}"
            assert abs(row.case.a(w.u) - row.case.a(w.x)) <= 1e-9
            assert abs(row.case.b(w.u) - row.case.b(w.x)) <= 1e-9
            assert w.endpoint_gap >= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(3, "oracle agreement with every battery verdict at resolution 200", elapsed)


def test_criterion_4_nilpotent_construction():
    t0 = time.perf_counter()
    cases = [
        (one_minus(), identity()),     # both generators nilpotent
        (negated_log(), identity()),   # strict t-norm, nilpotent t-conorm
    ]
    for t_gen, s_gen in cases:
        u, x = nilpotent_witness(t_gen, s_gen)
        assert u != x
        assert max(abs(u.lo - x.lo), abs(u.hi - x.hi)) >= 1e-4
        t_af, s_af = tnorm(t_gen), tconorm(s_gen)
        assert abs(t_af(u) - t_af(x)) <= 1e-12
        assert abs(s_af(u) - s_af(x)) <= 1e-12
    report(4, "nilpotent collision construction for both generator patterns",
           time.perf_counter() - t0)


def _gap_values_direct(h, t1, t2, v1, v2, xs):
    # independent evaluation of the deformation gap
    return (1.0 - v2) * (h(t1 + v1 * xs) - h(t1)) + v2 * (h(t2 - (1.0 - v1) * xs) - h(t2))


def test_criterion_5_gap_sign_suite():
    t0 = time.perf_counter()
    convex_cases = [
        (lambda y: np.asarray(y, float) ** 2, (0.0, 1.0)),
        (lambda y: np.exp(np.asarray(y, float)), (0.0, 1.0)),
        (composite(negated_log(), negated_log_complement()).fn, (0.05, 4.0)),
    ]
    concave_cases = [
        (composite(power(2.0), power(0.5)).fn, (0.02, 0.98)),
    ]
    for cases, sign in ((convex_cases, -1.0), (concave_cases, 1.0)):
        for h, (lo, hi) in cases:
            ts = np.linspace(lo, hi, 50)
            for v in (0.25, 0.5, 0.75):
                for i in range(len(ts) - 1):
                    t1 = float(ts[i])
                    for j in range(i + 1, len(ts)):
                        t2 = float(ts[j])
                        xs = np.linspace(0.0, t2 - t1, 9)[1:]
                        gaps = _gap_values_direct(h, t1, t2, v, v, xs)
                        assert np.all(sign * gaps > 0.0), (t1, t2, v)

    # cross-check the direct evaluation against the library routine
    probe = convex_cases[0][0]
    assert collision_gap(0.4, 0.1, 0.8, 0.25, 0.25, probe) == pytest.approx(
        float(_gap_values_direct(probe, 0.1, 0.8, 0.25, 0.25, np.array([0.4]))[0]),
        abs=1e-15,
    )

    # affine map at equal weights: the gap vanishes identically
    affine = lambda y: 2.0 * np.asarray(y, float) + 1.0
    ts = np.linspace(0.0, 1.0, 50)
    for v in (0.25, 0.5, 0.75):
        for i in range(len(ts) - 1):
            for j in range(i + 1, len(ts)):
                t1, t2 = float(ts[i]), float(ts[j])
                xs = np.linspace(0.0, t2 - t1, 9)[1:]
                assert np.all(np.abs(_gap_values_direct(affine, t1, t2, v, v, xs)) <= 1e-14)

    # concave-increasing window where spread weights still scan clear
    scan = collision_scan(lambda y: np.sqrt(np.asarray(y, float)), (1.0, 2.0),
                          0.4, 0.6, 32)
    assert scan.outcome is ScanOutcome.CLEAR
    report(5, "deformation-gap signs on 50x50 grids plus the window scan",
           time.perf_counter() - t0)


def test_criterion_6_order_law_suite():
    t0 = time.perf_counter()
    specs = [
        ("lexicographic", AlphaBetaOrder(0.0, 1.0)),
        ("antilexicographic", AlphaBetaOrder(1.0, 0.0)),
        ("midpoint-then-upper", AlphaBetaOrder(0.5, 1.0)),
        ("midpoint-then-lower", AlphaBetaOrder(0.5, 0.0)),
        ("square-sqrt pair", square_sqrt_order()),
    ]
    lo, hi = interval_grid(100)
    rng = np.random.default_rng(42)
    raw = rng.uniform(size=(10000, 3, 2))
    tri_lo = raw.min(axis=2).reshape(-1)
    tri_hi = raw.max(axis=2).reshape(-1)

    for name, order in specs:
        s = sign_matrix(order, lo, hi)
        assert set(np.unique(s)).issubset({-1, 0, 1}), name
        eq = np.argwhere(s == 0)
        assert np.all(eq[:, 0] == eq[:, 1]), f"{name}: spurious tie"

        p, q = order.stage_values(tri_lo, tri_hi)
        p = p.reshape(-1, 3)
        q = q.reshape(-1, 3)

        def sgn(i, j):
            dp = p[:, i] - p[:, j]
            dq = q[:, i] - q[:, j]
            return np.where(np.abs(dp) > 1e-12, np.sign(dp),
                            np.where(np.abs(dq) > 1e-12, np.sign(dq), 0.0))

        le_uv, le_vz, le_uz = sgn(0, 1) <= 0, sgn(1, 2) <= 0, sgn(0, 2) <= 0
        assert np.all(~(le_uv & le_vz) | le_uz), f"{name}: transitivity"

        assert refines_interval_order(order, 50), name

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(6, "totality, antisymmetry, transitivity, refinement for 5 orders", elapsed)


def test_criterion_7_midpoint_coincidence():
    t0 = time.perf_counter()
    for gamma, beta in ((2.0, 1.0), (0.5, 0.0)):
        b = schur_pair_mean(power(gamma))
        rep = midpoint_order_coincidence(b, resolution=100)
        assert rep.coincide and rep.certainty == "proved" and rep.disagreement_count == 0
        # the proof, seen on the grid
        generated = GeneratedPairOrder(k_mean(0.5), b, verify_admissible=False)
        grid = orders_coincide(generated, AlphaBetaOrder(0.5, beta), resolution=100)
        assert grid.coincide and grid.disagreement_count == 0
    report(7, "midpoint order coincides with its projection counterpart",
           time.perf_counter() - t0)


def test_criterion_8_constructive_disagreement():
    t0 = time.perf_counter()
    gen_order = square_sqrt_order()
    for alpha in (0.25, 0.5):
        u, x = projection_disagreement_witness(power(2.0), alpha, 1.0)
        proj = AlphaBetaOrder(alpha, 1.0)
        # independent re-evaluation through both comparators
        a_vals = gen_order.a.values(np.array([u.lo, x.lo]), np.array([u.hi, x.hi]))
        assert a_vals[0] < a_vals[1] - 1e-10
        ka = (1 - alpha) * np.array([u.lo, x.lo]) + alpha * np.array([u.hi, x.hi])
        assert ka[1] < ka[0] - 1e-10
    report(8, "projection disagreement witnesses for the convex pair mean",
           time.perf_counter() - t0)
