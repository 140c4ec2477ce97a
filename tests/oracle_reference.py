"""Small-n reference for differential tests of the oracle's block refinement.

This is the per-candidate loop ``oracle_search`` ran before it refined
candidates a block at a time: each candidate samples its own A-level-curve
window, evaluates B there and walks its own sign flips.  The block pass must
give the same found/``None``, ``u`` and ``x``, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from intervalorders import Interval
from intervalorders.admissibility import (
    ORACLE_CONFIRM,
    ORACLE_QUANTUM,
    WITNESS_GAP,
    _candidate_pairs,
    _level_hi,
)
from intervalorders.generators import bisect_root
from intervalorders.intervals import interval_grid


def reference_refine_candidate(a, b, u: Interval, x: Interval, window: float,
                               target_a: float, target_b: float) -> Interval | None:
    lo_w = max(0.0, x.lo - window)
    hi_w = min(1.0, x.lo + window)
    x1s = np.linspace(lo_w, hi_w, 201)
    x2s, ok = _level_hi(a, x1s, target_a)
    if not np.any(ok):
        return None
    x1s, x2s = x1s[ok], x2s[ok]
    res = b.values(x1s, x2s) - target_b

    def on_curve(x1: float) -> Interval | None:
        x2, ok1 = _level_hi(a, np.array([x1]), target_a)
        return Interval(x1, float(x2[0])) if ok1[0] else None

    def residual(x1: float) -> float:
        cand = on_curve(x1)
        return math.nan if cand is None else b(cand) - target_b

    def polish(x1a: float, x1b: float) -> Interval | None:
        cand = on_curve(bisect_root(residual, x1a, x1b).mid)
        if cand is None:
            return None
        gap = max(abs(cand.lo - u.lo), abs(cand.hi - u.hi))
        if gap < WITNESS_GAP:
            return None
        if abs(a(cand) - target_a) <= ORACLE_CONFIRM and abs(b(cand) - target_b) <= ORACLE_CONFIRM:
            return cand
        return None

    flips = np.nonzero(np.sign(res[:-1]) * np.sign(res[1:]) < 0)[0]
    for k in flips:
        x1a, x1b = float(x1s[k]), float(x1s[k + 1])
        root_est = x1a + (x1b - x1a) * abs(res[k]) / (abs(res[k]) + abs(res[k + 1]))
        x2_est = float(np.interp(root_est, x1s, x2s))
        gap_est = max(abs(root_est - u.lo), abs(x2_est - u.hi))
        if gap_est < 0.5 * WITNESS_GAP:
            continue
        cand = polish(x1a, x1b)
        if cand is not None:
            return cand
    zeros = np.nonzero(res == 0.0)[0]
    for k in zeros:
        cand = Interval(float(x1s[k]), float(x2s[k]))
        gap = max(abs(cand.lo - u.lo), abs(cand.hi - u.hi))
        if gap >= WITNESS_GAP and abs(a(cand) - target_a) <= ORACLE_CONFIRM:
            return cand
    return None


def reference_oracle_search(a, b, *, resolution: int = 200
                            ) -> tuple[Interval, Interval] | None:
    lo, hi = interval_grid(resolution)
    va = a.values(lo, hi)
    vb = b.values(lo, hi)
    window = 2.5 / resolution
    ms, ns = _candidate_pairs(va, vb, ORACLE_QUANTUM)
    for m, n in zip(ms.tolist(), ns.tolist()):
        u = Interval(float(lo[m]), float(hi[m]))
        x = Interval(float(lo[n]), float(hi[n]))
        gap = max(abs(u.lo - x.lo), abs(u.hi - x.hi))
        if (gap >= WITNESS_GAP and abs(va[m] - va[n]) <= ORACLE_CONFIRM
                and abs(vb[m] - vb[n]) <= ORACLE_CONFIRM):
            return u, x
        refined = reference_refine_candidate(a, b, u, x, window, float(va[m]), float(vb[m]))
        if refined is not None:
            return u, refined
    return None


def reference_keeps_row(ulo: float, uhi: float, x1s, x2s, res) -> bool:
    """Whether the per-candidate loop would polish or confirm something on
    this row of bracketed samples: a sign flip whose estimated root passes
    the ``gap_est`` test, or an exact zero at least ``WITNESS_GAP`` from u."""
    for k in np.nonzero(np.sign(res[:-1]) * np.sign(res[1:]) < 0)[0]:
        x1a, x1b = float(x1s[k]), float(x1s[k + 1])
        root_est = x1a + (x1b - x1a) * abs(res[k]) / (abs(res[k]) + abs(res[k + 1]))
        x2_est = float(np.interp(root_est, x1s, x2s))
        if max(abs(root_est - ulo), abs(x2_est - uhi)) >= 0.5 * WITNESS_GAP:
            return True
    return any(max(abs(x1s[k] - ulo), abs(x2s[k] - uhi)) >= WITNESS_GAP
               for k in np.nonzero(res == 0.0)[0])


def reference_tail_rows(a, b, *, resolution: int) -> set:
    """The candidates before the first direct hit on which the per-candidate
    loop would polish or confirm something (:func:`reference_keeps_row`),
    each keyed by u's endpoints and the bytes of its bracketed x1s."""
    lo, hi = interval_grid(resolution)
    va = a.values(lo, hi)
    vb = b.values(lo, hi)
    window = 2.5 / resolution
    ms, ns = _candidate_pairs(va, vb, ORACLE_QUANTUM)
    rows = set()
    for m, n in zip(ms.tolist(), ns.tolist()):
        u = Interval(float(lo[m]), float(hi[m]))
        x = Interval(float(lo[n]), float(hi[n]))
        gap = max(abs(u.lo - x.lo), abs(u.hi - x.hi))
        if (gap >= WITNESS_GAP and abs(va[m] - va[n]) <= ORACLE_CONFIRM
                and abs(vb[m] - vb[n]) <= ORACLE_CONFIRM):
            break
        x1s = np.linspace(max(0.0, x.lo - window), min(1.0, x.lo + window), 201)
        x2s, ok = _level_hi(a, x1s, float(va[m]))
        x1s, x2s = x1s[ok], x2s[ok]
        res = b.values(x1s, x2s) - float(vb[m])
        if reference_keeps_row(u.lo, u.hi, x1s, x2s, res):
            rows.add((u.as_tuple(), x1s.tobytes()))
    return rows
