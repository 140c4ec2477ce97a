"""Coincidence analysis between generated orders and projection orders.

Two total orders *coincide* when they compare every pair of intervals the
same way.  The tools here count and locate disagreements, classify aggregation
functions by Schur monotonicity along constant-endpoint-sum diagonals, check
the midpoint-projection coincidence criterion, and construct explicit
disagreement witnesses between pairwise-generator-mean orders and projection
orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, TextIO

import numpy as np

from .admissibility import Outcome, check_pair
from .aggregators import (
    AggregationFunction,
    KProjection,
    SchurPair,
    k_mean,
    schur_pair_mean,
)
from .generators import Convexity, Generator, bisect_root, identity, registry_composite_shape
from .intervals import WRITE_BLOCK, Interval, interval_grid
from .orders import (
    AlphaBetaOrder,
    GeneratedPairOrder,
    Ordering,
    _key_signs,
    compare,
    tie_classes,
)


@dataclass(frozen=True)
class DisagreementWitness:
    u: Interval
    x: Interval
    first: Ordering   # how order 1 ranks u against x
    second: Ordering  # how order 2 ranks u against x


@dataclass(frozen=True)
class CoincidenceReport:
    """Outcome of a coincidence scan.

    ``certainty`` is "proved" only when a closed-form criterion backs the
    result; a clean grid scan alone is evidence and stays labelled "grid".
    ``alpha_thresholds`` lists projection weights at which the witness pair
    flips direction, when the comparison involves a projection order.
    """

    coincide: bool
    witness: DisagreementWitness | None = None
    alpha_thresholds: tuple[float, ...] = field(default_factory=tuple)
    certainty: str = "grid"
    disagreement_count: int = 0
    disagreements: tuple[DisagreementWitness, ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        d: dict = {
            "coincide": self.coincide,
            "certainty": self.certainty,
            "disagreement_count": self.disagreement_count,
        }
        if self.witness is not None:
            d["witness"] = {
                "u": list(self.witness.u.as_tuple()),
                "x": list(self.witness.x.as_tuple()),
                "direction_in_order_1": self.witness.first.name.lower(),
                "direction_in_order_2": self.witness.second.name.lower(),
            }
        else:
            d["witness"] = None
        d["alpha_thresholds"] = list(self.alpha_thresholds)
        return d


def k_alpha_crossover(u: Interval, x: Interval) -> float | None:
    """The projection weight where the weighted projections of u and x tie.

    The gap alpha -> K_alpha(u) - K_alpha(x) = (1-alpha) g0 + alpha g1 is
    linear, so its root on [0,1] is g0 / (g0 - g1); None when the
    projections never tie on [0,1] (one interval dominates at every weight)
    or tie everywhere (u = x).
    """
    g0, g1 = u.lo - x.lo, u.hi - x.hi
    if g0 == 0.0 and g1 == 0.0:
        return None
    if g0 == 0.0:
        return 0.0
    if g1 == 0.0:
        return 1.0
    if (g0 > 0) == (g1 > 0):
        return None
    return g0 / (g0 - g1)


def _alpha_notes(order1: GeneratedPairOrder, order2: GeneratedPairOrder,
                 w: DisagreementWitness) -> tuple[float, ...]:
    if not isinstance(order1, AlphaBetaOrder) and not isinstance(order2, AlphaBetaOrder):
        return ()
    threshold = k_alpha_crossover(w.u, w.x)
    return (threshold,) if threshold is not None else ()


def _inversions(a: np.ndarray) -> int:
    """Pairs i < j with a[i] > a[j] in an array of non-negative integers.

    A bottom-up merge sort (Knight 1966): each level offsets the runs of
    width 2w apart, counts for every element of a right half the larger
    elements of its left half with one ``searchsorted``, and merges the
    halves with one ``np.sort``.
    """
    idx = np.arange(a.size)
    span = int(a.max()) + 1
    count, w = 0, 1
    while w < a.size:
        run = idx // (2 * w)
        keys = run * span + a
        right = (idx // w) % 2 == 1
        # a right element's run has a full left half: (run + 1) * w left
        # elements in this and earlier runs, of which searchsorted counts
        # those not larger
        count += int(np.sum((run[right] + 1) * w
                            - np.searchsorted(keys[~right], keys[right], side="right")))
        a = np.sort(keys) - run * span
        w *= 2
    return count


def _tied_pairs(sizes: np.ndarray) -> int:
    """Pairs within groups of the given sizes."""
    return int(np.sum(sizes * (sizes - 1) // 2))


def _disagreement_counts(k1: np.ndarray, k2: np.ndarray) -> tuple[int, int]:
    """Strict and tie-only disagreements of two dense rank arrays over
    unordered pairs: ranked in opposite directions (the inversions of k2 in
    (k1, k2) order), or tied under exactly one of them."""
    order = np.lexsort((k2, k1))
    a, b = k1[order], k2[order]
    starts = np.flatnonzero(np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])])
    both = _tied_pairs(np.diff(np.r_[starts, a.size]))
    return _inversions(b), _tied_pairs(np.bincount(k1)) + _tied_pairs(np.bincount(k2)) - 2 * both


# How each order ranks u against x in a disagreements CSV, by key sign + 1.
_DIRECTIONS = ("less", "equal", "greater")


class DisagreementCells(NamedTuple):
    """Grid disagreements as index arrays: hit k pairs grid intervals
    u = (lo[rows[k]], hi[rows[k]]) and x = (lo[cols[k]], hi[cols[k]]), with
    rows[k] < cols[k], in row-major order; k1 and k2 are the two orders'
    ``tie_classes`` keys over the grid."""

    lo: np.ndarray
    hi: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    rows: np.ndarray
    cols: np.ndarray

    def witnesses(self) -> tuple[DisagreementWitness, ...]:
        i, j = self.rows, self.cols
        return tuple(
            DisagreementWitness(Interval(a, b), Interval(c, d), Ordering(s1), Ordering(s2))
            for a, b, c, d, s1, s2 in zip(
                self.lo[i].tolist(), self.hi[i].tolist(), self.lo[j].tolist(),
                self.hi[j].tolist(), np.sign(self.k1[i] - self.k1[j]).tolist(),
                np.sign(self.k2[i] - self.k2[j]).tolist()))

    def write_csv(self, fh: TextIO) -> None:
        """Write the header, then one `u_lo,u_hi,x_lo,x_hi,order1,order2`
        row per hit (endpoints as repr, directions as less/equal/greater),
        ``WRITE_BLOCK`` rows per write."""
        fh.write("u_lo,u_hi,x_lo,x_hi,order1,order2\n")
        ends = [f"{a!r},{b!r}" for a, b in zip(self.lo.tolist(), self.hi.tolist())]
        for start in range(0, self.rows.size, WRITE_BLOCK):
            i, j = self.rows[start:start + WRITE_BLOCK], self.cols[start:start + WRITE_BLOCK]
            d1 = np.sign(self.k1[i] - self.k1[j]) + 1
            d2 = np.sign(self.k2[i] - self.k2[j]) + 1
            fh.write("".join(
                f"{ends[a]},{ends[b]},{_DIRECTIONS[s1]},{_DIRECTIONS[s2]}\n"
                for a, b, s1, s2 in zip(i.tolist(), j.tolist(), d1.tolist(), d2.tolist())))


def _witness_cells(k1: np.ndarray, k2: np.ndarray, strict: bool,
                   limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major grid positions (rows, cols as int64) of the first ``limit``
    pairs i < j that the keys rank in opposite directions (``strict``), else
    tie in one order only.

    Rows are scanned in blocks of 1, 2, 4, ... rows, each against every
    later column, until a block would pass 2**20 cells (rows times columns
    left, and at least one row), so a block's key signs take O(1) memory
    whatever n is.  The scan stops at the block that completes ``limit``
    hits: a last hit in row r costs at most 2(r + 1) rows of key signs.
    The cells come out in row-major order however the rows are split, so
    the blocks decide cost only.
    """
    rows, cols = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    found, start, size = 0, 0, 1
    while found < limit:
        stop = min(start + size, k1.size)
        # rows start..stop-1 against columns start..n-1, kept where j > i
        s1, s2 = (_key_signs(k[start:stop], k[start:]) for k in (k1, k2))
        hit = s1 * s2 < 0 if strict else s1 != s2
        hit[:, :stop - start] = np.triu(hit[:, :stop - start], k=1)
        r, c = np.nonzero(hit)
        rows.append(start + r[:limit - found])
        cols.append(start + c[:limit - found])
        found += rows[-1].size
        start, size = stop, max(1, min(2 * size, 2**20 // max(1, k1.size - stop)))
    return (np.concatenate(rows).astype(np.int64, copy=False),
            np.concatenate(cols).astype(np.int64, copy=False))


def orders_coincide(order1: GeneratedPairOrder, order2: GeneratedPairOrder,
                    resolution: int = 100,
                    candidates: list[tuple[Interval, Interval]] | None = None,
                    collect_all: bool = False,
                    max_collected: int = 100000, *,
                    _cells: list | None = None) -> CoincidenceReport:
    """Compare two total orders on candidate pairs and a full endpoint grid.

    Candidate pairs (when given) are examined first, in order; the first pair
    the comparators rank in strictly opposite directions becomes the witness.
    Otherwise the witness is the lexicographically first strict disagreement
    on the grid (else the first pair tied in one order only).  A report with
    ``coincide=True`` is grid-level evidence.  The disagreements are counted
    from one sort of the two orders' ``tie_classes`` keys (strict ones as a
    Kendall distance, the rest from tie-class sizes).  Only witnesses need a
    scan (``_witness_cells``): row blocks that grow from one row up to a
    fixed number of cells, stopping at the block that holds the last
    witness wanted and never run when the orders coincide, so memory stays
    O(n) and a witness in an early row costs a few rows.  The scan yields
    index arrays; ``disagreements`` is built from them only with
    ``collect_all``.

    ``_cells`` serves CLI ``coincide``'s CSV dump: a list given there
    receives the grid scan's ``DisagreementCells`` (no hits when the orders
    coincide), and ``disagreements`` stays empty, so no witness object is
    built per row.
    """
    if resolution < 50:
        raise ValueError("resolution must be at least 50")

    for u, x in candidates or ():
        s1, s2 = compare(order1, u, x), compare(order2, u, x)
        if {s1, s2} == {Ordering.LESS, Ordering.GREATER}:
            w = DisagreementWitness(u, x, s1, s2)
            return CoincidenceReport(coincide=False, witness=w, disagreement_count=1,
                                     alpha_thresholds=_alpha_notes(order1, order2, w))

    lo, hi = interval_grid(resolution)
    k1, k2 = (tie_classes(order, lo, hi) for order in (order1, order2))
    strict, tie_only = _disagreement_counts(k1, k2)
    # witnesses are strict disagreements when there are any, else tie-only ones
    limit = min(max(1, max_collected) if collect_all else 1, strict or tie_only)
    cells = DisagreementCells(lo, hi, k1, k2, *_witness_cells(k1, k2, bool(strict), limit))
    if _cells is not None:
        _cells.append(cells)
    if strict + tie_only == 0:
        return CoincidenceReport(coincide=True)

    built = collect_all and _cells is None
    collected = (cells if built else
                 cells._replace(rows=cells.rows[:1], cols=cells.cols[:1])).witnesses()
    return CoincidenceReport(
        coincide=False, witness=collected[0],
        alpha_thresholds=_alpha_notes(order1, order2, collected[0]),
        disagreement_count=strict + tie_only,
        disagreements=collected if built else (),
    )


# ---------------------------------------------------------------------------
# Schur classification
# ---------------------------------------------------------------------------


# Steps along a diagonal smaller than this count as flat in the Schur scan.
SCHUR_TOL = 1e-12


class SchurClass(Enum):
    STRICTLY_SCHUR_CONVEX = "strictly_schur_convex"
    SCHUR_CONVEX = "schur_convex"
    STRICTLY_SCHUR_CONCAVE = "strictly_schur_concave"
    SCHUR_CONCAVE = "schur_concave"
    NEITHER = "neither"

    @property
    def implies_convex(self) -> bool:
        return self in (SchurClass.STRICTLY_SCHUR_CONVEX, SchurClass.SCHUR_CONVEX)

    @property
    def implies_concave(self) -> bool:
        return self in (SchurClass.STRICTLY_SCHUR_CONCAVE, SchurClass.SCHUR_CONCAVE)

    @property
    def is_strict(self) -> bool:
        return self in (SchurClass.STRICTLY_SCHUR_CONVEX, SchurClass.STRICTLY_SCHUR_CONCAVE)


# A pair mean's Schur class by the convexity of its f; an affine f is
# constant along diagonals, Schur-convex and Schur-concave at once but never
# strictly, and gets the convex label.  MIXED and UNKNOWN have no entry.
_PAIR_MEAN_SCHUR = {
    Convexity.STRICTLY_CONVEX: SchurClass.STRICTLY_SCHUR_CONVEX,
    Convexity.STRICTLY_CONCAVE: SchurClass.STRICTLY_SCHUR_CONCAVE,
    Convexity.AFFINE: SchurClass.SCHUR_CONVEX,
}


def _closed_form_schur(af: AggregationFunction) -> SchurClass | None:
    d = af.descriptor
    if isinstance(d, SchurPair):
        return _PAIR_MEAN_SCHUR.get(registry_composite_shape(identity(), d.f))
    if isinstance(d, KProjection):
        # along u1 + u2 = const the projection is (1-w)*sum + (2w-1)*u2
        if d.w > 0.5:
            return SchurClass.STRICTLY_SCHUR_CONVEX
        if d.w < 0.5:
            return SchurClass.STRICTLY_SCHUR_CONCAVE
        return SchurClass.SCHUR_CONVEX
    return None


def schur_classify(af: AggregationFunction, resolution: int = 100) -> SchurClass:
    """Monotonicity class of the aggregator along constant-sum diagonals.

    Strict classes are emitted only by the closed-form registry (pairwise
    means of generators with certified strict convexity, and endpoint
    projections); the diagonal scan alone yields non-strict classes or
    NEITHER.
    """
    if resolution < 50:
        raise ValueError("resolution must be at least 50")
    closed = _closed_form_schur(af)
    if closed is not None:
        return closed

    nondec = noninc = True
    for sigma in np.linspace(0.02, 1.98, resolution):
        hi_lo = 0.5 * sigma
        hi_hi = min(1.0, sigma)
        his = np.linspace(hi_lo, hi_hi, resolution)
        los = sigma - his
        vals = af.values(los, his)
        diffs = np.diff(vals)
        if np.any(diffs < -SCHUR_TOL):
            nondec = False
        if np.any(diffs > SCHUR_TOL):
            noninc = False
        if not nondec and not noninc:
            return SchurClass.NEITHER
    # constant along every diagonal (noninc as well): both classes hold
    # non-strictly; report the convex label
    return SchurClass.SCHUR_CONVEX if nondec else SchurClass.SCHUR_CONCAVE


# ---------------------------------------------------------------------------
# Midpoint-projection coincidence criterion
# ---------------------------------------------------------------------------


def midpoint_order_coincidence(b: AggregationFunction, resolution: int = 100
                               ) -> CoincidenceReport:
    """Coincidence of the (midpoint, B) order with a projection order.

    A strictly Schur-convex B makes the order generated by (midpoint
    projection, B) coincide with the (0.5, 1) projection order; strictly
    Schur-concave dually with (0.5, 0).  The pair must itself be admissible.
    Strict classifications give the "proved" report at once, with no grid
    scan.  Non-strict convex or concave classes cannot prove coincidence;
    they return the grid report of ``orders_coincide`` against that target.
    Any other class determines no target and raises.
    """
    a = k_mean(0.5)
    verdict = check_pair(a, b)
    if verdict.outcome is Outcome.NOT_ADMISSIBLE:
        raise ValueError(
            f"(midpoint, {b.name}) is not admissible (rule {verdict.rule}); "
            "the generated relation is not a total order"
        )
    cls = schur_classify(b, resolution)
    if cls.implies_convex:
        target = AlphaBetaOrder(0.5, 1.0)
    elif cls.implies_concave:
        target = AlphaBetaOrder(0.5, 0.0)
    else:
        raise ValueError(
            f"{b.name}: Schur classification {cls.value} does not determine "
            "a reference projection order"
        )
    if cls.is_strict:
        return CoincidenceReport(coincide=True, certainty="proved")
    generated = GeneratedPairOrder(a, b, verify_admissible=False)
    return orders_coincide(generated, target, resolution=resolution)


# ---------------------------------------------------------------------------
# Constructive disagreement with projection orders
# ---------------------------------------------------------------------------


def _reflect_generator(f: Generator) -> Generator:
    """x -> 1 - f(1-x): swaps strict convexity and concavity, keeps the
    increasing-bijection contract."""
    return Generator(
        name=f"reflected({f.name})",
        fn=lambda x: 1.0 - np.asarray(f.fn(1.0 - np.asarray(x, float)), float),
        inv=lambda y: 1.0 - np.asarray(f.inv(1.0 - np.asarray(y, float)), float),
        increasing=True,
        at_zero=0.0,
        at_one=1.0,
        kind=None,
        param=None,
    )


def projection_disagreement_witness(f: Generator, alpha: float, beta: float
                                    ) -> tuple[Interval, Interval]:
    """Two intervals ranked in strictly opposite directions by the pairwise
    f-mean order and the (alpha, beta) projection order.

    Requires an increasing bijection f of [0,1]: strictly convex when
    alpha <= 0.5, strictly concave when alpha >= 0.5 (either works at 0.5).
    Returns (u, x) with u strictly below x for any order generated by the
    pair mean A(z) = 0.5(f(z1) + f(z2)) (with any admissible partner), while
    x is strictly below u for the (alpha, beta) projection order.

    Construction: nest u inside a wide base interval x so that both share the
    alpha-projection exactly, then raise u's left endpoint just enough to
    break the projection tie upward while the f-sum stays strictly below; the
    final left endpoint is found by bisection against the f-sum budget.
    """
    alpha, beta = float(alpha), float(beta)
    if not 0.0 <= alpha <= 1.0 or not 0.0 <= beta <= 1.0:
        raise ValueError("projection weights must lie in [0,1]")
    if alpha == beta:
        raise ValueError("the projection order requires alpha != beta")
    shape = registry_composite_shape(identity(), f)
    if shape is Convexity.UNKNOWN or not f.increasing:
        raise ValueError(f"{f.name}: need an increasing bijection with certified shape")
    if abs(f.at_zero) > 1e-12 or abs(f.at_one - 1.0) > 1e-12:
        raise ValueError(f"{f.name}: need f(0) = 0 and f(1) = 1")

    if shape is Convexity.STRICTLY_CONVEX and alpha <= 0.5:
        return _convex_disagreement(f, alpha)
    if shape is Convexity.STRICTLY_CONCAVE and alpha >= 0.5:
        u, x = _convex_disagreement(_reflect_generator(f), 1.0 - alpha)
        # reflect back: orders reverse, so the pair swaps roles
        return (
            Interval(1.0 - x.hi, 1.0 - x.lo),
            Interval(1.0 - u.hi, 1.0 - u.lo),
        )
    raise ValueError(
        f"{f.name}: shape {shape.value} does not support "
        f"alpha={alpha:g} (strictly convex needs alpha <= 0.5, strictly "
        "concave alpha >= 0.5)"
    )


def _convex_disagreement(f: Generator, alpha: float) -> tuple[Interval, Interval]:
    x1, x2 = 0.1, 0.9
    if alpha == 0.0:
        u1, u2 = x1, 0.5 * (x1 + x2)
    else:
        delta = 0.5 * alpha * (x2 - x1)
        u1 = x1 + delta
        u2 = x2 - delta * (1.0 - alpha) / alpha

    target = float(f.fn(x1)) + float(f.fn(x2))
    base = float(f.fn(u1)) + float(f.fn(u2))
    if not base < target:
        raise ValueError(
            f"{f.name}: convexity margin failed on the base pair (got "
            f"{base!r} >= {target!r})"
        )

    # push u1 upward while the f-sum stays strictly under the target
    f_u2 = float(f.fn(u2))

    def budget(t):
        return np.asarray(f.fn(u1 + t), dtype=float) + f_u2 - target

    hi_t = u2 - u1
    if budget(hi_t) < 0:
        t_star = hi_t
    else:
        # bisect the sign of the budget, which is never exactly 0, so a
        # budget of 0 counts as spent and the lower end keeps budget < 0
        t_star = bisect_root(lambda t: np.where(budget(t) < 0, -1.0, 1.0), 0.0, hi_t).lo
    u_hat = Interval(u1 + 0.5 * t_star, u2)
    x = Interval(x1, x2)

    a_margin = target - (float(f.fn(u_hat.lo)) + float(f.fn(u_hat.hi)))
    k_margin = ((1.0 - alpha) * u_hat.lo + alpha * u_hat.hi) - (
        (1.0 - alpha) * x.lo + alpha * x.hi
    )
    if a_margin <= 1e-10 or k_margin <= 1e-10:
        raise ValueError(
            f"{f.name}: disagreement margins too small "
            f"(f-sum {a_margin!r}, projection {k_margin!r})"
        )
    return u_hat, x
