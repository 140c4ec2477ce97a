"""Small-n reference for differential tests of the tree-batched root finder.

This is the scalar loop ``bisect_root`` ran before it evaluated a tree of
midpoints per call: one call of fn on one float per halving.  The batched
engine must return the same bracket, bit for bit.  The scalar-path
references of the collision search and the oracle bisect with it.
"""

from __future__ import annotations

import math

from intervalorders.generators import Bracket


def reference_bisect_root(fn, lo: float, hi: float, target: float = 0.0) -> Bracket:
    start_above = float(fn(lo)) > target
    a, b = lo, hi
    for _ in range(200):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        v = float(fn(m))
        if v == target or not math.isfinite(v):
            return Bracket(m, m)
        if (v > target) == start_above:
            a = m
        else:
            b = m
    return Bracket(a, b)
