"""Total-order comparators on unit intervals and ranking utilities.

Two kinds of comparator are supported: the projection order, which compares
alpha-weighted endpoint projections and breaks ties with a second weight
beta, and the order generated by an admissible pair (A, B) of aggregation
functions, which compares A-values and breaks ties with B.  Both are
lexicographic two-stage comparisons; with an admissible pair exact ties in
both stages happen only for identical intervals.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .aggregators import AggregationFunction, aggregator_from_config
from .intervals import Interval, interval_grid

# Primary-stage tie tolerance.  Ties must be tight: with an admissible pair
# exact ties occur only at u = x, so a loose tolerance would invent spurious
# Equal results between nearby intervals.
TIE_TOL = 1e-12


class OrderSpecError(ValueError):
    """Raised when a total-order specification is invalid."""


class Ordering(IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class AlphaBetaOrder:
    """Compare alpha-projections first, beta-projections to break ties."""

    def __init__(self, alpha: float, beta: float):
        alpha, beta = float(alpha), float(beta)
        for name, w in (("alpha", alpha), ("beta", beta)):
            if not 0.0 <= w <= 1.0:
                raise OrderSpecError(f"{name} must lie in [0,1], got {w!r}")
        if alpha == beta:
            raise OrderSpecError("alpha and beta must differ")
        self.alpha = alpha
        self.beta = beta

    def stage_values(self, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        return (
            (1.0 - self.alpha) * lo + self.alpha * hi,
            (1.0 - self.beta) * lo + self.beta * hi,
        )

    def __repr__(self) -> str:
        return f"AlphaBetaOrder({self.alpha:g}, {self.beta:g})"


class GeneratedPairOrder:
    """The order generated by a pair (A, B) of aggregation functions.

    By default construction verifies the pair is admissible (raising on a
    proven collision); pass ``verify_admissible=False`` to skip, e.g. for
    pairs already checked.  The verification verdict is kept on ``verdict``.
    """

    def __init__(self, a: AggregationFunction, b: AggregationFunction,
                 verify_admissible: bool = True, resolution: int = 100):
        self.a = a
        self.b = b
        self.verdict = None
        if verify_admissible:
            from .admissibility import Outcome, check_pair

            verdict = check_pair(a, b, resolution=max(50, resolution))
            self.verdict = verdict
            if verdict.outcome is Outcome.NOT_ADMISSIBLE:
                raise OrderSpecError(
                    f"pair ({a.name}, {b.name}) is not admissible "
                    f"(rule {verdict.rule}); it cannot totally order intervals"
                )

    def stage_values(self, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        return self.a.values(lo, hi), self.b.values(lo, hi)

    def __repr__(self) -> str:
        return f"GeneratedPairOrder({self.a.name}, {self.b.name})"


TotalOrder = AlphaBetaOrder | GeneratedPairOrder


def compare(order: TotalOrder, u: Interval, x: Interval) -> Ordering:
    """Two-stage lexicographic comparison of u against x."""
    lo = np.array([u.lo, x.lo])
    hi = np.array([u.hi, x.hi])
    p, q = order.stage_values(lo, hi)
    dp = float(p[0] - p[1])
    if abs(dp) > TIE_TOL:
        return Ordering.LESS if dp < 0 else Ordering.GREATER
    dq = float(q[0] - q[1])
    if abs(dq) > TIE_TOL:
        return Ordering.LESS if dq < 0 else Ordering.GREATER
    return Ordering.EQUAL


def sort_intervals(order: TotalOrder, items: list[Interval]) -> list[Interval]:
    """Stable ascending sort; deterministic."""
    return sorted(items, key=functools.cmp_to_key(lambda u, x: int(compare(order, u, x))))


def rank_indices(order: TotalOrder, items: list[Interval]) -> list[int]:
    """Input positions sorted ascending under the order (stable)."""
    idx = list(range(len(items)))
    return sorted(idx, key=functools.cmp_to_key(
        lambda i, j: int(compare(order, items[i], items[j]))
    ))


def sign_matrix(order: TotalOrder, lo: np.ndarray, hi: np.ndarray,
                tol: float = TIE_TOL, block: int = 256) -> np.ndarray:
    """Pairwise comparison signs (-1/0/+1 as int8) over an interval family.

    Entry [i, j] is the sign of interval i against interval j under the
    two-stage comparison.  Computed blockwise to bound memory.
    """
    p, q = order.stage_values(lo, hi)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise OrderSpecError("stage values must be finite for totality")
    n = p.size
    out = np.empty((n, n), dtype=np.int8)
    for start in range(0, n, block):
        stop = min(start + block, n)
        dp = p[start:stop, None] - p[None, :]
        dq = q[start:stop, None] - q[None, :]
        primary = np.abs(dp) > tol
        s = np.where(primary, np.sign(dp), np.where(np.abs(dq) > tol, np.sign(dq), 0.0))
        out[start:stop] = s.astype(np.int8)
    return out


def refines_interval_order(order: TotalOrder, resolution: int = 50) -> bool:
    """Whether the total order extends the componentwise partial order on a
    grid: no componentwise-dominated pair may compare as Greater.

    This is a necessary property of any collision-free comparator, not a
    sufficient certificate of admissibility.
    """
    if resolution < 20:
        raise ValueError("resolution must be at least 20")
    lo, hi = interval_grid(resolution)
    s = sign_matrix(order, lo, hi)
    n = lo.size
    for start in range(0, n, 256):
        stop = min(start + 256, n)
        dominated = (lo[start:stop, None] <= lo[None, :]) & (hi[start:stop, None] <= hi[None, :])
        if np.any(dominated & (s[start:stop] == 1)):
            return False
    return True


def order_from_config(spec: dict) -> TotalOrder:
    """Build a total order from a config mapping.

    Formats: {"kind": "alpha_beta", "alpha": 0.5, "beta": 1.0} or
    {"kind": "pair", "a": {...}, "b": {...}, "verify": true}.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise OrderSpecError(f"order spec must be a mapping with a 'kind' key, got {spec!r}")
    kind = spec["kind"]
    if kind == "alpha_beta":
        if "alpha" not in spec or "beta" not in spec:
            raise OrderSpecError("alpha_beta order requires 'alpha' and 'beta'")
        return AlphaBetaOrder(float(spec["alpha"]), float(spec["beta"]))
    if kind == "pair":
        if "a" not in spec or "b" not in spec:
            raise OrderSpecError("pair order requires 'a' and 'b' aggregator specs")
        a = aggregator_from_config(spec["a"])
        b = aggregator_from_config(spec["b"])
        return GeneratedPairOrder(a, b, verify_admissible=bool(spec.get("verify", True)))
    raise OrderSpecError(f"unknown order kind {kind!r}; supported kinds: alpha_beta, pair")
