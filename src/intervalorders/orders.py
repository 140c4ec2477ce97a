"""Total-order comparators on unit intervals and ranking utilities.

The order generated by an admissible pair (A, B) of aggregation functions
compares A-values and breaks ties with B, a lexicographic two-stage
comparison; exact ties in both stages happen only for identical intervals.
The (alpha, beta) projection order is the order generated by the pair
(K_alpha, K_beta) of weighted endpoint projections
K_w(z) = (1-w) z1 + w z2, so it is one more generated pair order.

Ties are decided once, by ``tie_classes``: sort by the first stage value,
merge each run whose consecutive gaps are at most ``TIE_TOL`` into one
class, and split each class the same way by the second stage value.  Every
comparison here reads these integer classes, so ties are transitive.

The first stage is one argsort.  When no two neighbouring first stage
values lie within ``TIE_TOL`` every class is a single interval, the second
stage is skipped, and that argsort is the ranking.  Otherwise one
``lexsort`` by (class, second stage value) splits the classes, and
``rank_indices`` returns it when it lists each final class in input order;
if not, a stable sort of the keys gives the ranking.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from .admissibility import Outcome, check_pair
from .aggregators import AggregationFunction, aggregator_from_config, k_mean
from .generators import config_float
from .intervals import Interval, interval_grid

# Tie tolerance of both stages, read only by ``tie_classes``.  Ties must be
# tight: with an admissible pair exact ties occur only at u = x, so a loose
# tolerance would invent spurious Equal results between nearby intervals.
TIE_TOL = 1e-12

# Oracle resolution of the admissibility check a pair order runs when built.
VERIFY_RESOLUTION = 100


class OrderSpecError(ValueError):
    """Raised when a total-order specification is invalid."""


class Ordering(IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class GeneratedPairOrder:
    """The order generated by a pair (A, B) of aggregation functions.

    By default construction verifies the pair is admissible (raising on a
    proven collision); pass ``verify_admissible=False`` to skip, e.g. for
    pairs already checked.  The verification verdict is kept on ``verdict``.
    """

    def __init__(self, a: AggregationFunction, b: AggregationFunction,
                 verify_admissible: bool = True):
        self.a = a
        self.b = b
        self.verdict = None
        if verify_admissible:
            verdict = check_pair(a, b, resolution=VERIFY_RESOLUTION)
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


class AlphaBetaOrder(GeneratedPairOrder):
    """The (alpha, beta)-order: the order generated by (K_alpha, K_beta),
    which is admissible for any two distinct weights."""

    def __init__(self, alpha: float, beta: float):
        alpha, beta = float(alpha), float(beta)
        for name, w in (("alpha", alpha), ("beta", beta)):
            if not 0.0 <= w <= 1.0:
                raise OrderSpecError(f"{name} must lie in [0,1], got {w!r}")
        if alpha == beta:
            raise OrderSpecError("alpha and beta must differ")
        super().__init__(k_mean(alpha), k_mean(beta), verify_admissible=False)
        self.alpha = alpha
        self.beta = beta

    def __repr__(self) -> str:
        return f"AlphaBetaOrder({self.alpha:g}, {self.beta:g})"


def _classes(order: GeneratedPairOrder, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """``tie_classes`` keys, and input positions sorted by them."""
    p, q = (np.asarray(v, dtype=float) for v in order.stage_values(lo, hi))
    if not np.all(np.isfinite(p) & np.isfinite(q)):
        raise OrderSpecError("stage values must be finite for totality")
    idx = np.argsort(p)  # any order of equal values gives the same classes
    new_class = np.r_[True, np.diff(p[idx]) > TIE_TOL]
    keys = np.empty(p.size, dtype=np.int64)
    keys[idx] = np.cumsum(new_class) - 1
    if not new_class.all():  # a first stage class holds two values: split it by q
        idx = np.lexsort((q, keys))
        k, v = keys[idx], q[idx]
        keys[idx] = np.cumsum(np.r_[True, (k[1:] != k[:-1]) | (np.diff(v) > TIE_TOL)]) - 1
    return keys, idx


def tie_classes(order: GeneratedPairOrder, lo, hi) -> np.ndarray:
    """Dense rank (int64) of each interval under the order; equal ranks tie.
    Classes are runs of sorted stage values with consecutive gaps at most
    ``TIE_TOL``, first stage then second, so ties are transitive."""
    return _classes(order, lo, hi)[0]


def compare(order: GeneratedPairOrder, u: Interval, x: Interval) -> Ordering:
    """Two-stage lexicographic comparison of u against x."""
    k = tie_classes(order, np.array([u.lo, x.lo]), np.array([u.hi, x.hi]))
    return Ordering(int(np.sign(k[0] - k[1])))


def rank_indices(order: GeneratedPairOrder, lo, hi) -> np.ndarray:
    """Input positions (int64) sorted ascending under the order: a stable sort
    of the transitive ``tie_classes`` keys, so ties keep their input order."""
    keys, idx = _classes(order, lo, hi)
    k = keys[idx]
    if np.all((k[1:] != k[:-1]) | (idx[1:] > idx[:-1])):  # each class in input order
        return idx
    return np.argsort(keys, kind="stable")


def sort_intervals(order: GeneratedPairOrder, items: list[Interval]) -> list[Interval]:
    """Stable ascending sort; deterministic."""
    lo = np.array([z.lo for z in items], dtype=float)
    hi = np.array([z.hi for z in items], dtype=float)
    return [items[i] for i in rank_indices(order, lo, hi).tolist()]


def _key_signs(ki: np.ndarray, kj: np.ndarray) -> np.ndarray:
    """Signs (int8) of keys ki against keys kj, one row per entry of ki."""
    signs = (ki[:, None] > kj[None, :]).view(np.int8)
    signs -= ki[:, None] < kj[None, :]
    return signs


def sign_matrix(order: GeneratedPairOrder, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Pairwise comparison signs (-1/0/+1 as int8) over a small interval family.

    Entry [i, j] is the sign of the ``tie_classes`` key of interval i minus
    that of interval j; 0 marks a tie, and ties are transitive.
    """
    keys = tie_classes(order, lo, hi)
    return _key_signs(keys, keys)


def refines_interval_order(order: GeneratedPairOrder, resolution: int = 50) -> bool:
    """Whether the total order extends the componentwise partial order on a
    grid: no componentwise-dominated pair may compare as Greater.

    This is a necessary property of any collision-free comparator, not a
    sufficient certificate of admissibility.

    Inside i <= j the componentwise order of grid points (i, j) is generated
    by the unit steps to (i, j + 1) and to (i + 1, j), and the keys are
    integers, so it is enough that no key falls along a unit step.
    """
    if resolution < 20:
        raise ValueError("resolution must be at least 20")
    k = np.zeros((resolution + 1, resolution + 1), dtype=np.int64)
    k[np.triu_indices(resolution + 1)] = tie_classes(order, *interval_grid(resolution))
    return not (np.triu(k[:, :-1] > k[:, 1:]).any() or np.triu(k[:-1] > k[1:], 1).any())


def order_from_config(spec: dict) -> GeneratedPairOrder:
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
        return AlphaBetaOrder(*(config_float(spec, k, OrderSpecError) for k in ("alpha", "beta")))
    if kind == "pair":
        if "a" not in spec or "b" not in spec:
            raise OrderSpecError("pair order requires 'a' and 'b' aggregator specs")
        verify = spec.get("verify", True)
        if not isinstance(verify, bool):
            raise OrderSpecError(f"'verify' must be true or false, got {verify!r}")
        a = aggregator_from_config(spec["a"])
        b = aggregator_from_config(spec["b"])
        return GeneratedPairOrder(a, b, verify_admissible=verify)
    raise OrderSpecError(f"unknown order kind {kind!r}; supported kinds: alpha_beta, pair")
