"""Small-n reference for differential tests of the oracle's block refinement.

This is the per-candidate loop ``oracle_search`` ran before it refined
candidates a block at a time: each candidate samples its own A-level-curve
window, evaluates B there, walks its own sign flips and polishes a flip one
scalar residual at a time.  Its candidates come from the five-offset bucket
builder that ``_candidate_pairs`` used before it read two key ranges.  The
block pass must give the same found/``None``, ``u`` and ``x``, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from bisect_reference import reference_bisect_root
from intervalorders import Interval
from intervalorders.admissibility import (
    ORACLE_CONFIRM,
    ORACLE_QUANTUM,
    WITNESS_GAP,
    _level_hi,
)
from intervalorders.intervals import interval_grid

_NEIGHBOURS = ((0, 1), (1, -1), (1, 0), (1, 1))


def reference_candidate_pairs(va: np.ndarray, vb: np.ndarray, quantum: float
                              ) -> tuple[np.ndarray, np.ndarray]:
    """The candidate pairs from one range per neighbouring bucket: the
    members after each interval in its own bucket, then all members of each
    of the four buckets of the canonical half-neighbourhood (``_NEIGHBOURS``),
    nine ``searchsorted`` calls in all."""
    ka = np.floor(va / quantum).astype(np.int64)
    kb = np.floor(vb / quantum).astype(np.int64)
    kb -= kb.min()
    row = int(kb.max()) + 2
    key = ka * row + kb
    order = np.argsort(key, kind="stable")
    skey = key[order]
    pos = np.arange(skey.size)
    bounds = [(pos + 1, np.searchsorted(skey, skey, "right"))]
    for di, dj in _NEIGHBOURS:
        nb = skey + di * row + dj
        bounds.append((np.searchsorted(skey, nb, "left"), np.searchsorted(skey, nb, "right")))
    ms, ns = [], []
    limit = quantum * 1.5
    for first, last in bounds:
        count = last - first
        rows = np.repeat(pos, count)
        cols = np.repeat(first - np.cumsum(count) + count, count) + np.arange(int(count.sum()))
        m, n = order[rows], order[cols]
        keep = ~((np.abs(va[m] - va[n]) > limit) | (np.abs(vb[m] - vb[n]) > limit))
        ms.append(np.minimum(m[keep], n[keep]))
        ns.append(np.maximum(m[keep], n[keep]))
    m, n = np.concatenate(ms), np.concatenate(ns)
    idx = np.lexsort((n, m))
    return m[idx], n[idx]


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
        cand = on_curve(reference_bisect_root(residual, x1a, x1b).mid)
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
    ms, ns = reference_candidate_pairs(va, vb, ORACLE_QUANTUM)
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


def reference_row_roots(ulo: float, uhi: float, x1s, x2s, res) -> list[tuple[int, int]]:
    """The sample pairs (first, last) of one row of bracketed samples that
    the per-candidate loop would polish or confirm, in its order: (k, k + 1)
    for each sign flip whose estimated root passes the ``gap_est`` test,
    then (k, k) for each exact zero at least ``WITNESS_GAP`` from u."""
    roots = []
    for k in np.nonzero(np.sign(res[:-1]) * np.sign(res[1:]) < 0)[0].tolist():
        x1a, x1b = float(x1s[k]), float(x1s[k + 1])
        root_est = x1a + (x1b - x1a) * abs(res[k]) / (abs(res[k]) + abs(res[k + 1]))
        x2_est = float(np.interp(root_est, x1s, x2s))
        if max(abs(root_est - ulo), abs(x2_est - uhi)) >= 0.5 * WITNESS_GAP:
            roots.append((k, k + 1))
    return roots + [(k, k) for k in np.nonzero(res == 0.0)[0].tolist()
                    if max(abs(x1s[k] - ulo), abs(x2s[k] - uhi)) >= WITNESS_GAP]


def reference_tail_roots(a, b, *, resolution: int) -> set:
    """The roots that the per-candidate loop would polish or confirm
    (:func:`reference_row_roots`) on the candidates before the first direct
    hit, each keyed by u's endpoints and the x1 of its two samples."""
    lo, hi = interval_grid(resolution)
    va = a.values(lo, hi)
    vb = b.values(lo, hi)
    window = 2.5 / resolution
    ms, ns = reference_candidate_pairs(va, vb, ORACLE_QUANTUM)
    roots = set()
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
        roots.update((u.as_tuple(), float(x1s[i]), float(x1s[j]))
                     for i, j in reference_row_roots(u.lo, u.hi, x1s, x2s, res))
    return roots
