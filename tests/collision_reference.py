"""Small-n reference for differential tests of the block collision search.

This is the per-pair loop the collision-gap engine ran before it evaluated a
block of endpoint pairs at a time: each pair samples its own deformations,
makes its own four calls of h, is classified on its own and bisects its
zero one scalar gap at a time.  The block pass must yield the same
candidates ``(x, t1, t2)`` and the same ``ScanResult``, bit for bit.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from bisect_reference import reference_bisect_root
from intervalorders.generators import (
    ScanOutcome,
    ScanResult,
    _call_vectorized,
    _domain_samples,
    collision_gap,
)


def _gap_values(xs: np.ndarray, t1: float, t2: float, v1: float, v2: float, h) -> np.ndarray:
    a = _call_vectorized(h, t1 + v1 * xs) - float(h(t1))
    b = _call_vectorized(h, t2 - (1.0 - v1) * xs) - float(h(t2))
    return (1.0 - v2) * a + v2 * b


def in_pair_zero(h, t1: float, t2: float, v1: float, v2: float,
                 n_x: int) -> tuple[np.ndarray, float | None]:
    xs = np.linspace(0.0, t2 - t1, n_x + 1)[1:]
    gs = _gap_values(xs, t1, t2, v1, v2, h)
    if not np.all(np.isfinite(gs)):
        return gs, None
    if np.all(np.abs(gs) < ScanResult.ZERO_TOL):
        return gs, float(xs[len(xs) // 2])
    pos = gs > ScanResult.ZERO_TOL
    neg = gs < -ScanResult.ZERO_TOL
    flips = np.nonzero(pos[:-1] & neg[1:] | neg[:-1] & pos[1:])[0]
    if not flips.size:
        return gs, None
    k = int(flips[0])
    return gs, reference_bisect_root(lambda x: collision_gap(x, t1, t2, v1, v2, h),
                           float(xs[k]), float(xs[k + 1])).mid


def reference_collision_candidates(h, pairs, v1: float, v2: float, n_x: int):
    one_signed: list[tuple[float, float, float]] = []
    for t1, t2 in pairs:
        gs, x0 = in_pair_zero(h, t1, t2, v1, v2, n_x)
        if x0 is not None:
            yield x0, t1, t2
        elif np.all(np.isfinite(gs)) and not (
            np.any(gs > ScanResult.ZERO_TOL) and np.any(gs < -ScanResult.ZERO_TOL)
        ):
            one_signed.append((t1, t2, float(gs[-1])))
    start = next((p for p in one_signed if p[2] > ScanResult.ZERO_TOL), None)
    end = next((p for p in one_signed if p[2] < -ScanResult.ZERO_TOL), None)
    if start is None or end is None:
        return
    (a1, a2, _), (b1, b2, _) = start, end

    def along(lmb: float) -> tuple[float, float, float]:
        t1 = (1.0 - lmb) * a1 + lmb * b1
        t2 = (1.0 - lmb) * a2 + lmb * b2
        if t2 <= t1:
            return t1, t2, math.nan
        return t1, t2, collision_gap(t2 - t1, t1, t2, v1, v2, h)

    t1, t2, u = along(reference_bisect_root(lambda lmb: along(lmb)[2], 0.0, 1.0).mid)
    if math.isfinite(u) and t2 > t1:
        yield t2 - t1, t1, t2


def reference_collision_scan(h, domain: tuple[float, float], v1: float, v2: float,
                             resolution: int = 32) -> ScanResult:
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    ts = _domain_samples(domain, resolution)
    n_x = min(64, resolution)
    signs_seen: set[int] = set()
    min_abs = math.inf
    suspicious = False
    for t1, t2 in combinations(map(float, ts), 2):
        gs, x0 = in_pair_zero(h, t1, t2, v1, v2, n_x)
        if x0 is not None:
            return ScanResult(ScanOutcome.COLLISION, (x0, t1, t2), 0)
        if not np.all(np.isfinite(gs)):
            suspicious = True
            continue
        if np.any(np.abs(gs) < ScanResult.ZERO_TOL):
            suspicious = True
        if np.any(gs > ScanResult.ZERO_TOL):
            signs_seen.add(1)
        elif np.any(gs < -ScanResult.ZERO_TOL):
            signs_seen.add(-1)
        min_abs = min(min_abs, float(np.min(np.abs(gs))))
    if len(signs_seen) == 2:
        return ScanResult(ScanOutcome.INCONCLUSIVE)
    if not suspicious and min_abs >= ScanResult.CLEAR_TOL and len(signs_seen) == 1:
        return ScanResult(ScanOutcome.CLEAR, sign=signs_seen.pop())
    return ScanResult(ScanOutcome.INCONCLUSIVE)


def reference_witness_pairs(ts) -> list[tuple[float, float]]:
    """The witness search's pair order: widest first, then by lower end."""
    return sorted(combinations(map(float, ts), 2), key=lambda p: (-(p[1] - p[0]), p[0]))
