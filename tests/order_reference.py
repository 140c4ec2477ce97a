"""Small-n references for differential tests of ranking and coincidence.

These are the pairwise-tolerance comparator, its ``cmp_to_key`` sort, its
sign table and the two-sign-table ``orders_coincide`` that the package used
before every comparison read ``tie_classes`` keys, and the per-witness
disagreements CSV writer that CLI ``coincide`` used before it wrote the rows
from index arrays.  The pairwise rule is not
transitive on chains of near-ties (consecutive gaps within ``TIE_TOL``, ends
further apart); away from such chains it must give the same answers as the
package.

``reference_tie_classes`` is ``tie_classes`` as it was before it took its
first stage from one sort: one ``lexsort`` per stage, then a stable sort of
the keys for the ranking.  The package must match it bit for bit, near-tie
chains included.

``reference_refines_interval_order`` is ``refines_interval_order`` as it was
before it checked unit grid steps only: it compares every componentwise
dominated pair of grid intervals, 256 rows at a time.
"""

from __future__ import annotations

import functools

import numpy as np

from intervalorders import CoincidenceReport, DisagreementWitness, Interval, Ordering
from intervalorders.coincidence import _alpha_notes
from intervalorders.intervals import interval_grid
from intervalorders.orders import TIE_TOL, OrderSpecError, tie_classes


def reference_compare(order, u: Interval, x: Interval) -> Ordering:
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


def reference_rank(order, items: list[Interval]) -> list[int]:
    idx = list(range(len(items)))
    return sorted(idx, key=functools.cmp_to_key(
        lambda i, j: int(reference_compare(order, items[i], items[j]))
    ))


def reference_sign_matrix(order, lo, hi, tol: float = TIE_TOL, block: int = 256) -> np.ndarray:
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


def reference_orders_coincide(order1, order2, resolution: int = 100,
                              collect_all: bool = False,
                              max_collected: int = 100000) -> CoincidenceReport:
    """The grid part of the two-sign-table ``orders_coincide``."""
    lo, hi = interval_grid(resolution)
    s1 = reference_sign_matrix(order1, lo, hi)
    s2 = reference_sign_matrix(order2, lo, hi)
    mismatch = s1 != s2
    count = int(np.count_nonzero(np.triu(mismatch, k=1)))
    if count == 0:
        return CoincidenceReport(coincide=True)

    strict = np.triu((s1 == 1) & (s2 == -1) | (s1 == -1) & (s2 == 1), k=1)
    collected: list[DisagreementWitness] = []
    witness = None
    rows, cols = np.nonzero(strict if strict.any() else np.triu(mismatch, k=1))
    for i, j in zip(rows, cols):
        u = Interval(float(lo[i]), float(hi[i]))
        x = Interval(float(lo[j]), float(hi[j]))
        w = DisagreementWitness(u, x, reference_compare(order1, u, x),
                                reference_compare(order2, u, x))
        if witness is None:
            witness = w
        if not collect_all:
            break
        collected.append(w)
        if len(collected) >= max_collected:
            break
    thresholds = _alpha_notes(order1, order2, witness) if witness else ()
    return CoincidenceReport(
        coincide=False, witness=witness, alpha_thresholds=thresholds,
        disagreement_count=count, disagreements=tuple(collected),
    )


def reference_disagreements_csv(fh, report: CoincidenceReport) -> None:
    """The disagreements CSV, one row per witness of ``report.disagreements``."""
    fh.write("u_lo,u_hi,x_lo,x_hi,order1,order2\n")
    for w in report.disagreements:
        fh.write(
            f"{w.u.lo!r},{w.u.hi!r},{w.x.lo!r},{w.x.hi!r},"
            f"{w.first.name.lower()},{w.second.name.lower()}\n"
        )


def has_near_tie_chain(order, lo, hi) -> bool:
    """Whether the pairwise tie relation is intransitive on the family: in
    the first stage alone, or in both stages together."""
    p, q = order.stage_values(np.asarray(lo, float), np.asarray(hi, float))
    tie_p = np.abs(p[:, None] - p[None, :]) <= TIE_TOL
    tie_pq = tie_p & (np.abs(q[:, None] - q[None, :]) <= TIE_TOL)
    for tie in (tie_p, tie_pq):
        two_steps = (tie.astype(np.int64) @ tie.astype(np.int64)) > 0
        if np.any(two_steps & ~tie):
            return True
    return False


def reference_tie_classes(order, lo, hi) -> np.ndarray:
    p, q = (np.asarray(v, dtype=float) for v in order.stage_values(lo, hi))
    if not np.all(np.isfinite(p) & np.isfinite(q)):
        raise OrderSpecError("stage values must be finite for totality")
    keys = np.zeros(p.size, dtype=np.int64)
    for v in (p, q):
        idx = np.lexsort((v, keys))
        k, v = keys[idx], v[idx]
        keys[idx] = np.cumsum(np.r_[True, (k[1:] != k[:-1]) | (np.diff(v) > TIE_TOL)]) - 1
    return keys


def reference_rank_indices(order, lo, hi) -> np.ndarray:
    return np.argsort(reference_tie_classes(order, lo, hi), kind="stable")


def reference_refines_interval_order(order, resolution: int) -> bool:
    lo, hi = interval_grid(resolution)
    keys = tie_classes(order, lo, hi)
    for start in range(0, lo.size, 256):
        rows = slice(start, start + 256)
        dominated = (lo[rows, None] <= lo[None, :]) & (hi[rows, None] <= hi[None, :])
        if np.any(dominated & (keys[rows, None] > keys[None, :])):
            return False
    return True
