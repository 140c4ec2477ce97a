"""Small-n reference for differential tests of the oracle's level scan.

This is the dense scan ``_scan_levels`` ran before it worked on bracketed
cells alone: A's level curve solved on the whole (level, x1) table, B
sampled where it is bracketed and NaN elsewhere, and steps, ties and
turns found row by row.  The cell scan must return the same witness and
directions and try the same roots in the same order, bit for bit.  The
roots are accepted through ``admissibility._level_curve_witness``, looked
up at call time, so that a test can record them from both scans.
"""

from __future__ import annotations

import numpy as np

from intervalorders import admissibility
from intervalorders.admissibility import TURN_TOL, _bisect_hi
from intervalorders.intervals import Interval


def reference_level_hi(a, x1s: np.ndarray, target) -> tuple[np.ndarray, np.ndarray]:
    """The A-level curve A([x1, x2]) = target; returns (x2s, bracketed),
    shaped like ``x1s`` broadcast against ``target``: one value, one per
    element of ``x1s``, or a column of levels, one row of x2s per level.
    x2 means nothing where it is not bracketed."""
    lo_val = a.values(x1s, x1s)
    hi_val = a.values(x1s, np.ones_like(x1s))
    ok = ((np.minimum(lo_val, hi_val) - 1e-13 <= target)
          & (target <= np.maximum(lo_val, hi_val) + 1e-13))
    solve = getattr(a.descriptor, "solve_hi", None)
    x2s = np.full_like(x1s, np.nan) if solve is None else solve(x1s, target)
    x2s = np.where(lo_val >= target, x1s, np.clip(x2s, x1s, 1.0))
    redo = ok & np.isnan(x2s)
    if redo.any():
        x2s[redo] = _bisect_hi(a, np.broadcast_to(x1s, x2s.shape)[redo],
                               np.broadcast_to(target, x2s.shape)[redo])
    return x2s, ok


def reference_steps(bs: np.ndarray) -> np.ndarray:
    """The steps of B between consecutive samples of each row of ``bs``:
    1 up and -1 down where B moves by more than ``TURN_TOL`` * max(1, |B|)
    at either end, else 0 (a NaN hole included)."""
    lead, trail = bs[:, :-1], bs[:, 1:]
    tol = TURN_TOL * np.maximum(1.0, np.maximum(np.abs(lead), np.abs(trail)))
    d = trail - lead
    return (d > tol).astype(np.int8) - (d < -tol)


def reference_level_roots(bs: np.ndarray, steps: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The roots to try along the rows of ``bs`` (NaN where a curve has no
    point), ``steps`` being ``reference_steps(bs)``: parallel arrays (row,
    u, first, last) of sample indices, by row, then by earliest sample."""
    tie_row, tie_k = np.nonzero(bs[:, :-1] == bs[:, 1:])
    turn_row, turn_k = np.nonzero(steps[:, :-1] * steps[:, 1:] < 0)
    if tie_row.size == turn_row.size == 0:
        return (tie_row,) * 4
    lead, trail = bs[turn_row, turn_k], bs[turn_row, turn_k + 2]
    near_lead = np.where(steps[turn_row, turn_k] > 0, lead >= trail, lead <= trail)
    row = np.concatenate([tie_row, turn_row])
    u = np.concatenate([tie_k, np.where(near_lead, turn_k, turn_k + 2)])
    first = np.concatenate([tie_k + 1, np.where(near_lead, turn_k + 1, turn_k)])
    last = np.concatenate([tie_k + 1, first[tie_k.size:] + 1])
    order = np.lexsort((np.concatenate([tie_k, turn_k]), row))
    return row[order], u[order], first[order], last[order]


def reference_scan_levels(a, b, x1: np.ndarray, levels: np.ndarray):
    """The dense scan: (witness or None, direction per level)."""
    x2s, ok = reference_level_hi(a, x1, levels[:, None])
    bs = np.full(x2s.shape, np.nan)
    bs[ok] = b.values(np.broadcast_to(x1, x2s.shape)[ok], x2s[ok])
    steps = reference_steps(bs)
    direction = (steps > 0).any(axis=1).astype(np.int8) - (steps < 0).any(axis=1)
    rows, us, firsts, lasts = reference_level_roots(bs, steps)
    for r, k, i, j in zip(rows.tolist(), us.tolist(), firsts.tolist(), lasts.tolist()):
        u = Interval(float(x1[k]), float(x2s[r, k]))
        w = admissibility._level_curve_witness(a, b, u, float(levels[r]), float(bs[r, k]),
                                               float(x1[i]), float(x1[j]), float(x2s[r, i]))
        if w is not None:
            return w, direction
    return None, direction
