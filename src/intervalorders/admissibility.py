"""Deciding whether a pair of aggregation functions can totally order intervals.

A pair (A, B) is *admissible* when simultaneous equality A(u) = A(x) and
B(u) = B(x) forces u = x; the two-stage comparison "A first, B to break
ties" is then a total order refining the componentwise interval order.

The decision engine layers three kinds of evidence, strongest first:

1.  Constructive exclusions, from where each descriptor states that it
    saturates.  Two conjunctive sides (both send [0, x] to 0) or two
    disjunctive ones (both send [x, 1] to 1) collide at once; a nilpotent
    t-norm (t-conorm) is exactly 0 (1) on its ``flat_square``, where
    ``rule_nilpotent`` builds a collision.  They ship a verified witness.
2.  The weight band of two quasi views.  Off its saturated part, every
    builtin aggregator but K_0, K_1 and the nilpotent t-norms and t-conorms
    is a strictly increasing transform of a weighted quasi-linear mean
    M_{f,w} (``quasi_view``): K_w = M_{id,w}, 0.5 (f(u1) + f(u2)) =
    f(M_{f,1/2}), a strict T = t^{-1}(2 t(M_{t,1/2})) and a strict S
    likewise.  It has the collisions of that mean, so one quasi-linear rule
    (``rule_quasi_linear``) decides every pair of views, across families
    too, and exactly: B turns along A's level curves where L(x2) - L(x1) =
    logit(w1) - logit(w2), L = log|g'/f'|, so the pair is admissible
    exactly when that weight ratio lies outside the band of L(x2) - L(x1),
    which the closed-form registry gives.  A collision is converted back
    into a witness at a zero of the collision gap or a turn of B.  A
    generator without a registry row has no band, so the rule can only
    exclude its pair by a witness, and otherwise leaves it to the oracle.
    K_0 and K_1 have no view; ``rule_k0_k1`` decides them in closed form
    along their level sets lo = c and hi = c.
3.  The oracle.  A scan of A's level sets: the exact ties of a triangular
    grid of intervals first, then B sampled along A's level curves, which
    every builtin family gives in closed form through its generator's
    inverse (``solve_hi`` on the descriptor; bisection is the fallback).
    Each exact tie or turn of B along a curve is polished there and
    accepted only through ``make_witness`` at ``ORACLE_CONFIRM``, and such
    a witness proves non-admissibility outright; an empty scan is
    evidence, not proof, and is labelled as such.

Verdicts from (A, B) and (B, A) always agree in outcome because the defining
condition is symmetric in the two components.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .aggregators import (
    AggregationFunction,
    KProjection,
    SchurPair,
    TConorm,
    TNorm,
    k_mean,
    tconorm,
    tnorm,
)
from .generators import (
    Composite,
    Generator,
    WeightBand,
    _pairs_of,
    _weight_band,
    bisect_root,
    collision_candidates,
    composite,
)
from .intervals import Interval, interval_grid

WITNESS_TOL = 1e-9
WITNESS_GAP = 1e-4
ORACLE_CONFIRM = 1e-10
# The oracle counts a step of B along a level curve only beyond
# TURN_TOL * max(1, |B|).
TURN_TOL = 1e-12
# The composite collision search decodes f-images of COLLISION_POINTS points
# of [COLLISION_MARGIN, 1 - COLLISION_MARGIN].
COLLISION_POINTS = 33
COLLISION_MARGIN = 0.02
_COLLISION_XS = np.linspace(COLLISION_MARGIN, 1.0 - COLLISION_MARGIN, COLLISION_POINTS)
_COLLISION_XS.flags.writeable = False


class Outcome(Enum):
    ADMISSIBLE = "admissible"
    NOT_ADMISSIBLE = "not_admissible"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Witness:
    """Two distinct intervals with (near-)equal values under both components."""

    u: Interval
    x: Interval
    residual_a: float
    residual_b: float

    @property
    def endpoint_gap(self) -> float:
        return max(abs(self.u.lo - self.x.lo), abs(self.u.hi - self.x.hi))

    def within(self, tol: float) -> bool:
        """Both residuals at most ``tol``."""
        return self.residual_a <= tol and self.residual_b <= tol

    def swapped(self) -> "Witness":
        return Witness(self.u, self.x, self.residual_b, self.residual_a)

    def to_json_dict(self) -> dict:
        return {
            "u": list(self.u.as_tuple()),
            "x": list(self.x.as_tuple()),
            "residual_a": self.residual_a,
            "residual_b": self.residual_b,
        }


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    rule: str
    witness: Witness | None = None
    note: str = ""

    def to_json_dict(self) -> dict:
        d: dict = {
            "outcome": self.outcome.value,
            "rule": self.rule,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
        }
        if self.note:
            d["note"] = self.note
        return d


def make_witness(a: AggregationFunction, b: AggregationFunction,
                 u: Interval, x: Interval, tol: float = WITNESS_TOL) -> Witness | None:
    """Validate a candidate collision: both residuals within ``tol`` and the
    endpoints at least ``WITNESS_GAP`` apart; None when it fails."""
    lo, hi = np.array([u.lo, x.lo]), np.array([u.hi, x.hi])
    ra, rb = (abs(float(v[0]) - float(v[1])) for v in (a.values(lo, hi), b.values(lo, hi)))
    w = Witness(u, x, ra, rb)
    if w.within(tol) and w.endpoint_gap >= WITNESS_GAP:
        return w
    return None


# ---------------------------------------------------------------------------
# Descriptor views
# ---------------------------------------------------------------------------


def quasi_view(af: AggregationFunction) -> tuple[Generator, float] | None:
    """The (f, w) of the weighted quasi-linear mean M_{f,w} of which A is a
    strictly increasing transform where A is not saturated, so that A and
    M_{f,w} have the same collisions; None when A's descriptor has no
    ``quasi_view`` or gives none."""
    view = getattr(af.descriptor, "quasi_view", None)
    return None if view is None else view()


def _k_weight(af: AggregationFunction) -> float | None:
    """w when A is an endpoint projection K_w, K_0 and K_1 included."""
    view = quasi_view(af)
    if view is None:
        return getattr(af.descriptor, "projection_weight", None)
    return view[1] if view[0].kind == "identity" else None


def is_conjunctive(af: AggregationFunction) -> bool:
    """True when A([0, x]) = 0 for every x < 1, as A's descriptor states."""
    return getattr(af.descriptor, "conjunctive", False)


def is_disjunctive(af: AggregationFunction) -> bool:
    """True when A([x, 1]) = 1 for every x > 0, as A's descriptor states."""
    return getattr(af.descriptor, "disjunctive", False)


# ---------------------------------------------------------------------------
# Constructive witnesses
# ---------------------------------------------------------------------------


def _nilpotent_square(af: AggregationFunction) -> tuple[float, float] | None:
    """(p, q) with A saturated on [p, q]^2: the descriptor's ``flat_square``."""
    return getattr(af.descriptor, "flat_square", None)


def _square_witness(f: Generator, w: float, p: float, q: float) -> tuple[Interval, Interval]:
    """u = [c, c] at the midpoint c of [p, q], and the x in [p, q] with one
    end at p or q on the level curve of M_{f,w} through u: x = [p, x2] when
    f(x2) - f(c) = (1-w)/w (f(c) - f(p)) fits in f(q) - f(c), else [x1, q]."""
    c = 0.5 * (p + q)
    fc = float(f.fn(c))
    low = (1.0 - w) / w * (fc - float(f.fn(p)))
    high = float(f.fn(q)) - fc
    u = Interval(c, c)
    # (1-w)/w overflows for w below about 1e-308, and an infinite end ties nothing
    if math.isfinite(low - high) and abs(low - high) <= 1e-14 * max(1.0, abs(low), abs(high)):
        return u, Interval(p, q)
    if abs(low) < abs(high):
        return u, Interval(p, bisect_root(f.fn, c, q, fc + low).mid)
    return u, Interval(bisect_root(f.fn, p, c, fc - w / (1.0 - w) * high).mid, q)


def nilpotent_witness(t: Generator, s: Generator) -> tuple[Interval, Interval]:
    """The witness of ``rule_nilpotent(tnorm(t), tconorm(s))``; building
    those raises ``AggregationError`` on a generator in the wrong role.
    ``ValueError`` when both are strict or no witness passed."""
    v = rule_nilpotent(tnorm(t), tconorm(s))
    if v is None or v.witness is None:
        raise ValueError("at least one generator must be nilpotent, with a valid witness")
    return v.witness.u, v.witness.x


def _decode_vspace(f: Generator, v1: float, x0: float, t1: float, t2: float
                   ) -> tuple[Interval, Interval]:
    """Map a collision-gap zero back to a pair of intervals.

    The scan works in the value space of f; (s1, s2) is the deformed pair
    with the same v1-weighted mean as (t1, t2).
    """
    s1 = t1 + v1 * x0
    s2 = t2 - (1.0 - v1) * x0
    # s1 <= s2 holds mathematically; rounding at the full deformation
    # x0 = t2 - t1 can invert the images by one ulp, so sort defensively
    u_ends = sorted((float(f.inv(s1)), float(f.inv(s2))))
    x_ends = sorted((float(f.inv(t1)), float(f.inv(t2))))
    return Interval(*u_ends), Interval(*x_ends)


def _collision_witness(h: Composite, w1: float, w2: float,
                       a: AggregationFunction, b: AggregationFunction) -> Witness | None:
    """Search the collision gap of the composite h = g o f^{-1} for a
    verified witness.

    The endpoint pairs are those of f's image of ``COLLISION_POINTS`` points
    of [COLLISION_MARGIN, 1 - COLLISION_MARGIN], widest first so witnesses
    are well separated, then by lower end (one stable ``np.lexsort``, so
    ties keep the ``combinations`` order).  Each candidate zero of the gap from
    :func:`collision_candidates` is decoded back to intervals and validated
    against the actual aggregation functions; the first that passes is
    returned.
    """
    f = h.f
    v1 = w1 if f.increasing else 1.0 - w1
    v2 = w2 if f.increasing else 1.0 - w2
    ts = np.sort(np.asarray(f.fn(_COLLISION_XS), float))
    lo, hi = _pairs_of(ts)
    order = np.lexsort((lo, -(hi - lo)))
    for x0, t1, t2 in collision_candidates(h.fn, lo[order], hi[order], v1, v2, 48):
        w = make_witness(a, b, *_decode_vspace(f, v1, x0, t1, t2))
        if w is not None:
            return w
    return None


def _swapped(w: Witness | None) -> Witness | None:
    return None if w is None else w.swapped()


def _band_witness(a: AggregationFunction, b: AggregationFunction, band: WeightBand,
                  log_rho: float) -> Witness | None:
    """A collision next to a turn of B along a level curve of A.

    The turn, L(x2) - L(x1) = log rho, is bisected on the segment from
    [c, c] to the (x1, x2) of the band's end beyond log rho, c their
    midpoint; where L is infinite at x1 (x2), the segment keeps x2 (x1) at
    c, so that the turn stays off the corner.  :func:`_scan_levels` samples
    B at the turn and the ends of its level curve and bisects B = B(u) for
    u at the end whose B is nearer B at the turn; while no witness passes
    and an end is ``WITNESS_GAP`` or more from the turn, both ends move
    halfway to it.
    """
    p1, p2 = band.hi_at if log_rho > 0 else band.lo_at
    c = 0.5 * (p1 + p2)
    l1, l2 = band.log_q([p1, p2])
    if math.isinf(l1):
        p2 = c
    elif math.isinf(l2):
        p1 = c

    s = bisect_root(lambda v: band.log_q(c + v * (p2 - c)) - band.log_q(c + v * (p1 - c))
                    - log_rho, 0.0, 1.0).mid
    x1, x2 = c + s * (p1 - c), c + s * (p2 - c)
    level = a(Interval(x1, x2))
    lo = (0.0 if a(Interval(0.0, 1.0)) >= level
          else bisect_root(lambda t: a.values(t, np.ones_like(t)), 0.0, x1, level).hi)
    hi = bisect_root(lambda t: a.values(t, t), x1, x2, level).lo
    while max(x1 - lo, hi - x1) >= WITNESS_GAP:
        w = _scan_levels(a, b, np.array([lo, x1, hi]), np.array([level]))[0]
        if w is not None:
            return w
        lo, hi = 0.5 * (lo + x1), 0.5 * (x1 + hi)
    return None


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


_SATURATION_LOW = (Interval(0.0, 0.3), Interval(0.0, 0.6))
_SATURATION_HIGH = (Interval(0.4, 1.0), Interval(0.7, 1.0))


def _saturation_verdict(a: AggregationFunction, b: AggregationFunction) -> Verdict | None:
    if is_conjunctive(a) and is_conjunctive(b):
        w = make_witness(a, b, *_SATURATION_LOW)
        return Verdict(Outcome.NOT_ADMISSIBLE, "conjunctive-saturation", witness=w)
    if is_disjunctive(a) and is_disjunctive(b):
        w = make_witness(a, b, *_SATURATION_HIGH)
        return Verdict(Outcome.NOT_ADMISSIBLE, "disjunctive-saturation", witness=w)
    return None


def rule_quasi_linear(a: AggregationFunction, b: AggregationFunction) -> Verdict | None:
    """Pairs whose sides both have a quasi view M_{f,w1} and M_{g,w2}, decided
    by the weight band of g o f^{-1}: admissible exactly when log rho =
    logit(w1) - logit(w2) lies outside it, except that an affine composite
    collides at equal weights.  None when either side has no quasi view, or
    log rho is within the band's ``slack`` of an end that is neither 0
    nor infinite.

    At equal weights the band asks for a strictly convex or strictly
    concave composite, and the rule id names the classical criterion:
    ``strict-archimedean-*`` for a strict t-norm with a strict t-conorm,
    ``pair-mean-*`` for pairwise means (with each other or with K_{1/2}),
    else ``equal-weights-*``.  At distinct weights it is
    ``weight-order-shape`` when the band holds nothing on log rho's side of
    0, else ``weight-band``.  A collision is ``*-collision`` with a witness
    of the collision gap or, at distinct weights, of :func:`_band_witness`;
    without one it keeps the band's id and a note says so.  Without a
    registry row there is no band, and only a witness decides.
    """
    qa, qb = quasi_view(a), quasi_view(b)
    if qa is None or qb is None:
        return None
    (f, w1), (g, w2) = qa, qb
    sat = _saturation_verdict(a, b)
    if sat is not None:
        return sat
    band = _weight_band(f.kind, f.param, g.kind, g.param)
    # logit(w1) - logit(w2), by the logits where the log1p quotient leaves (-1, inf)
    den = (1.0 - w1) * w2
    q = (w1 - w2) / den if den else math.inf
    log_rho = (math.log1p(q) if -1.0 < q < math.inf else
               (math.log(w1) - math.log1p(-w1)) - (math.log(w2) - math.log1p(-w2)))
    ends = () if band is None else (band.lo, band.hi)
    if any(end and abs(log_rho - end) <= band.slack for end in ends):
        return None  # at a float end of the band
    if w1 == w2:
        kinds = {type(a.descriptor), type(b.descriptor)}
        stem = ("strict-archimedean" if kinds == {TNorm, TConorm}
                else "pair-mean" if SchurPair in kinds and kinds <= {SchurPair, KProjection}
                else "equal-weights")
        shape_rule, collision_rule = f"{stem}-shape", f"{stem}-collision"
        note = "composite certified neither strictly convex nor strictly concave"
    else:
        beyond = band is not None and (band.hi if log_rho > 0 else band.lo)
        shape_rule = "weight-band" if beyond else "weight-order-shape"
        collision_rule = "weighted-collision"
        note = "weight ratio inside the band, but no collision in floats was found"
    if band is not None and not (band.lo < log_rho < band.hi or band.lo == band.hi == log_rho):
        return Verdict(Outcome.ADMISSIBLE, shape_rule)
    witness = _collision_witness(composite(f, g), w1, w2, a, b)
    if witness is None and w1 != w2 and band is not None:
        # the band has decided: the pair swapped, as check_pair would try
        # it, then the level curves of A and of B
        witness = (_swapped(_collision_witness(composite(g, f), w2, w1, b, a))
                   or _band_witness(a, b, band, log_rho)
                   or _swapped(_band_witness(
                       b, a, _weight_band(g.kind, g.param, f.kind, f.param), -log_rho)))
    if witness is not None:
        return Verdict(Outcome.NOT_ADMISSIBLE, collision_rule, witness=witness)
    return None if band is None else Verdict(Outcome.NOT_ADMISSIBLE, shape_rule, note=note)


def rule_k0_k1(b: AggregationFunction, k_weight: float) -> Verdict | None:
    """Pairing the 0- or 1-projection with B, in closed form.

    K_0's level sets are the lines lo = c, so (K_0, B) is admissible
    exactly when B(c, .) is strictly increasing for each c; dually (K_1, B)
    needs B(., c) strictly increasing.  After :func:`_saturation_verdict`,
    a B with a quasi view, a strictly increasing transform of M_{f,w} with
    0 < w < 1, and another projection are strictly increasing in each
    endpoint: ADMISSIBLE.  A nilpotent B is constant on its
    :func:`_nilpotent_square` [p, q]^2, where u = [c, c] and x = [c, q]
    (for K_1, x = [p, c]), c = (p + q) / 2, collide.  None for any other B.
    """
    if k_weight not in (0.0, 1.0):
        raise ValueError("rule applies to the endpoint projections only")
    k_af = k_mean(k_weight)
    sat = _saturation_verdict(k_af, b)
    if sat is not None:
        return sat
    if quasi_view(b) is not None or _k_weight(b) is not None:
        return Verdict(Outcome.ADMISSIBLE,
                       "k0-second-arg-strict" if k_weight == 0.0 else "k1-first-arg-strict")
    square = _nilpotent_square(b)
    if square is None:
        return None
    p, q = square
    c = 0.5 * (p + q)
    x, rule = ((Interval(c, q), "k0-flat-second-arg") if k_weight == 0.0
               else (Interval(p, c), "k1-flat-first-arg"))
    return Verdict(Outcome.NOT_ADMISSIBLE, rule,
                   witness=make_witness(k_af, b, Interval(c, c), x))


def rule_nilpotent(a: AggregationFunction, b: AggregationFunction) -> Verdict | None:
    """Never admissible: a nilpotent side is constant on its
    :func:`_nilpotent_square` (a conjunctive side's is tried first, so both
    orientations agree), where :func:`_square_witness` builds a collision
    with the other side's quasi view (f, w), or (s, 1/2) below the square
    of a nilpotent t-conorm, validated at 1e-12.  None when no side is
    nilpotent or the other has no view (K_0, K_1)."""
    for sat, other in ((a, b), (b, a)) if is_conjunctive(a) else ((b, a), (a, b)):
        square, view = _nilpotent_square(sat), quasi_view(other)
        top = _nilpotent_square(other) if view is None and is_disjunctive(other) else None
        if square is None or view is None and top is None:
            continue
        p, q = square
        if view is None:
            view, q = (other.descriptor.generator, 0.5), min(q, top[0])
        w = make_witness(a, b, *_square_witness(*view, p, q), tol=1e-12)
        return Verdict(Outcome.NOT_ADMISSIBLE, "nilpotent-collision", witness=w)
    return None


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


def _rules_once(a: AggregationFunction, b: AggregationFunction) -> Verdict | None:
    ka, kb = _k_weight(a), _k_weight(b)
    if ka is not None and kb is not None and ka != kb:
        return Verdict(Outcome.ADMISSIBLE, "projection-pair")

    sat = _saturation_verdict(a, b)
    if sat is not None:
        return sat

    nil = rule_nilpotent(a, b)
    if nil is not None:
        return nil

    if ka in (0.0, 1.0) and kb is None:
        return rule_k0_k1(b, ka)

    return rule_quasi_linear(a, b)


def _rejected_witness_note(w: Witness, resolution: int, tol: float) -> str:
    """The note on an oracle witness that ``tol`` rejects: its larger residual."""
    return (f"collision at resolution {resolution} rejected: residual "
            f"{max(w.residual_a, w.residual_b)!r} above tol {tol!r} (evidence, not proof)")


def check_pair(a: AggregationFunction, b: AggregationFunction, *,
               resolution: int = 200, tol: float = WITNESS_TOL,
               use_oracle: bool = True) -> Verdict:
    """Decide admissibility of (A, B).

    Rule verdicts come first (trying both orientations), the oracle last.  A
    NOT_ADMISSIBLE verdict carries a verified witness whenever one could be
    constructed; an UNKNOWN verdict after the oracle records which
    resolution was scanned and, when the scan's witness failed ``tol``, its
    larger residual.
    """
    v = _rules_once(a, b)
    if v is None:
        v = _rules_once(b, a)
        if v is not None and v.witness is not None:
            v = Verdict(v.outcome, v.rule, v.witness.swapped(), v.note)
    if v is not None:
        return v
    if use_oracle:
        w = _oracle_witness(a, b, resolution)
        if w is None:
            note = f"no collision found at resolution {resolution} (evidence, not proof)"
        elif w.within(tol):
            return Verdict(Outcome.NOT_ADMISSIBLE, "oracle", witness=w)
        else:
            note = _rejected_witness_note(w, resolution, tol)
        return Verdict(Outcome.UNKNOWN, "oracle", note=note)
    return Verdict(Outcome.UNKNOWN, "rules", note="no criterion matched; oracle disabled")


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def _bisect_hi(a: AggregationFunction, x1s: np.ndarray, target) -> np.ndarray:
    """Vector bisection of A([x1, x2]) = target over x2 in [x1, 1]; returns
    x2s.  ``target`` is one value or one per element of ``x1s``.  The
    fallback of :func:`_level_hi` and its reference."""
    increasing = a.values(x1s, np.ones_like(x1s)) >= a.values(x1s, x1s)
    lo_x = x1s.copy()
    hi_x = np.ones_like(x1s)
    for _ in range(60):
        mid = 0.5 * (lo_x + hi_x)
        v = a.values(x1s, mid)
        go_up = (v < target) == increasing
        lo_x = np.where(go_up, mid, lo_x)
        hi_x = np.where(go_up, hi_x, mid)
    return 0.5 * (lo_x + hi_x)


def _level_hi(a: AggregationFunction, x1s: np.ndarray, target
              ) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The A-level curve A([x1, x2]) = target where it has a point; returns
    (cells, x2s).  ``target`` is one value, one per element of ``x1s``, or
    a column of levels, one row of cells per level.  ``cells`` is the
    ``np.nonzero`` of where the level lies between A([x1, x1]) and
    A([x1, 1]), up to 1e-13, each evaluated once per x1, and x2s holds x2
    there alone.  x2 is the descriptor's closed form ``solve_hi``
    clipped to [x1, 1], and x1 itself where A([x1, x1]) >= target: on a
    flat level set that is the lowest solution, the one :func:`_bisect_hi`
    converges to.  Cells whose closed form is not finite, and every cell of
    a descriptor without ``solve_hi``, are bisected instead.
    """
    lo_val = a.values(x1s, x1s)
    hi_val = a.values(x1s, np.ones_like(x1s))
    ok = ((np.minimum(lo_val, hi_val) - 1e-13 <= target)
          & (target <= np.maximum(lo_val, hi_val) + 1e-13))
    cells = np.nonzero(ok)
    x1s, lo_val = x1s[cells[-1]], lo_val[cells[-1]]
    target = np.broadcast_to(target, ok.shape)[cells] if np.ndim(target) else target
    solve = getattr(a.descriptor, "solve_hi", None)
    x2s = np.full_like(x1s, np.nan) if solve is None else solve(x1s, target)
    x2s = np.where(lo_val >= target, x1s, np.clip(x2s, x1s, 1.0))
    redo = np.isnan(x2s)
    if redo.any():
        x2s[redo] = _bisect_hi(a, x1s[redo], np.broadcast_to(target, x2s.shape)[redo])
    return cells, x2s


def _steps(row: np.ndarray, k: np.ndarray, bs: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """B's steps from each cell to the next, the cells at (level ``row``,
    x1 index ``k``) in row-major order: (adjacent, steps), neighbours
    sharing a level and consecutive in x1, and a step 1 up and -1 down
    where B moves between neighbours by more than ``TURN_TOL`` * max(1,
    |B|) at either end, else 0 (a NaN B included)."""
    adjacent = (row[:-1] == row[1:]) & (k[:-1] + 1 == k[1:])
    lead, trail = bs[:-1], bs[1:]
    tol = TURN_TOL * np.maximum(1.0, np.maximum(np.abs(lead), np.abs(trail)))
    d = trail - lead
    steps = ((d > tol).astype(np.int8) - (d < -tol)) * adjacent
    return adjacent, steps


def _level_roots(bs: np.ndarray, adjacent: np.ndarray, steps: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The roots to try along sampled level curves, B at the cells ``bs``
    and ``_steps`` of them: parallel arrays (u, first, last) of cells.

    Two neighbouring cells with exactly equal B are an exact tie: u is the
    first, and first == last the second.  A *turn* is a step up followed by
    a step down, or the reverse.  Of the turning cell's two neighbours, u
    is the one whose B is nearer the turning value (the earlier one when
    both are as near); the step on the far side, (first, last), brackets
    B = B(u).  Roots come in the order of their earliest cell, so by level,
    then by x1.
    """
    tie = np.flatnonzero(adjacent & (bs[:-1] == bs[1:]))
    turn = np.flatnonzero(steps[:-1] * steps[1:] < 0)
    lead, trail = bs[turn], bs[turn + 2]
    # the nearer neighbour is the higher one at a peak, the lower at a trough
    near_lead = np.where(steps[turn] > 0, lead >= trail, lead <= trail)
    u = np.concatenate([tie, np.where(near_lead, turn, turn + 2)])
    first = np.concatenate([tie + 1, np.where(near_lead, turn + 1, turn)])
    last = np.concatenate([tie + 1, first[tie.size:] + 1])
    order = np.argsort(np.concatenate([tie, turn]), kind="stable")
    return u[order], first[order], last[order]


def _level_curve_witness(a: AggregationFunction, b: AggregationFunction, u: Interval,
                         target_a: float, target_b: float,
                         x1a: float, x1b: float, x2: float) -> Witness | None:
    """Accept one root of the B-residual B - ``target_b`` along A's level
    curve A([x1, x2]) = ``target_a`` through u, bracketed by the samples at
    x1a and x1b.

    :func:`bisect_root` polishes the root, one :func:`_level_hi` call and
    one ``b.values`` call per tree of midpoints (NaN where the curve is not
    bracketed); x1a == x1b marks an exact zero at the sample [x1a, x2],
    taken as it is.  The interval x on the curve is accepted only through
    ``make_witness(a, b, u, x, ORACLE_CONFIRM)``.
    """
    if x1a != x1b:
        def residual(x1s: np.ndarray) -> np.ndarray:
            cells, x2s = _level_hi(a, x1s, target_a)
            out = np.full_like(x1s, np.nan)
            out[cells] = b.values(x1s[cells], x2s) - target_b
            return out

        x1a = bisect_root(residual, x1a, x1b).mid
        _, x2s = _level_hi(a, np.array([x1a]), target_a)
        if x2s.size == 0:
            return None
        x2 = float(x2s[0])
    return make_witness(a, b, u, Interval(x1a, x2), ORACLE_CONFIRM)


def _repeated(v: np.ndarray) -> np.ndarray:
    """The indices, in increasing order, of the entries of ``v`` whose
    value occurs more than once: one argsort, then both neighbours of each
    equal pair of sorted values."""
    order = np.argsort(v)
    sv = v[order]
    same = sv[:-1] == sv[1:]
    marked = np.zeros(v.size, dtype=bool)
    marked[:-1] = same
    marked[1:] |= same
    idx = order[marked]
    idx.sort()
    return idx


def _grid_tie(a: AggregationFunction, b: AggregationFunction,
              lo: np.ndarray, hi: np.ndarray) -> Witness | None:
    """The first grid pair, in index order, whose A and B values are
    exactly equal, accepted through ``make_witness``; None when there is
    none.

    Only an interval whose A value occurs more than once can tie, so
    :func:`_repeated` marks those, and B is evaluated on them alone, in
    index order (not at all when there are none).  One stable sort of the
    marked intervals by the complex key A + iB, lexicographic in (A, B),
    puts each class of equal values in a run in index order (a NaN B,
    which ties with nothing, sorts last); every member of a class of two
    or more is marked, so the runs, and the smallest pair (m, n) with
    m < n, a pair of neighbours in its run, are those of sorting the whole
    grid.
    """
    va = a.values(lo, hi)
    idx = _repeated(va)
    if idx.size == 0:
        return None
    va, lo, hi = va[idx], lo[idx], hi[idx]
    vb = b.values(lo, hi)
    order = np.argsort(va + 1j * vb, kind="stable")
    m, n = order[:-1], order[1:]
    gap = np.maximum(np.abs(lo[m] - lo[n]), np.abs(hi[m] - hi[n]))
    tie = np.flatnonzero((va[m] == va[n]) & (vb[m] == vb[n]) & (gap >= WITNESS_GAP))
    if tie.size == 0:
        return None
    # interval_grid is in lexicographic order of (lo, hi), and the marked
    # intervals keep it, so index order is the lexicographic order of (u, x)
    first = tie[np.argmin(m[tie])]
    return make_witness(a, b, Interval(float(lo[m[first]]), float(hi[m[first]])),
                        Interval(float(lo[n[first]]), float(hi[n[first]])), ORACLE_CONFIRM)


def _scan_levels(a: AggregationFunction, b: AggregationFunction,
                 x1: np.ndarray, levels: np.ndarray) -> tuple[Witness | None, np.ndarray]:
    """Sample A's level curves at ``levels`` at the x1 values ``x1``, only
    on the (level, x1) cells where a curve has a point: one
    :func:`_level_hi` call and one ``b.values`` call.  Try the curves'
    roots (:func:`_level_roots`) in order through
    :func:`_level_curve_witness`.  Returns the first accepted witness, or
    None, and each curve's direction: 1 where B only rises along it, -1
    where it only falls, else 0."""
    (row, k), x2s = _level_hi(a, x1, levels[:, None])
    x1s = x1[k]
    bs = b.values(x1s, x2s)
    adjacent, steps = _steps(row, k, bs)
    moves = [np.bincount(row[:-1][steps == s], minlength=levels.size) > 0 for s in (1, -1)]
    direction = moves[0].astype(np.int8) - moves[1]
    for u, i, j in zip(*(v.tolist() for v in _level_roots(bs, adjacent, steps))):
        w = _level_curve_witness(a, b, Interval(float(x1s[u]), float(x2s[u])),
                                 float(levels[row[u]]), float(bs[u]),
                                 float(x1s[i]), float(x1s[j]), float(x2s[i]))
        if w is not None:
            return w, direction
    return None, direction


@functools.lru_cache(maxsize=4)
def _oracle_layout(resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What the oracle's scan at ``resolution`` takes from the resolution
    alone: the grid ``interval_grid(resolution)`` as (lo, hi), the
    ``resolution`` cosine-spaced x1, denser near 0 and 1, where the level
    curves meet the boundary, and the ``resolution`` - 1 interior levels
    j / ``resolution``.  Built once per resolution; the arrays are
    read-only, since the last few layouts are shared by every later call.
    """
    layout = (*interval_grid(resolution),
              0.5 - 0.5 * np.cos(np.linspace(0.0, np.pi, resolution)),
              np.arange(1, resolution) / resolution)
    for arr in layout:
        arr.flags.writeable = False
    return layout


def _oracle_witness(a: AggregationFunction, b: AggregationFunction,
                    resolution: int) -> Witness | None:
    """The witness :func:`oracle_search` reports, accepted by
    ``make_witness`` at ``ORACLE_CONFIRM``; None when there is none.

    The grid, the x1 samples and the levels come from
    :func:`_oracle_layout`, which keeps those of the last few resolutions
    read-only for the life of the process.  First the exact ties of the
    grid (:func:`_grid_tie`), which cover A's levels 0 and 1, where a
    saturating A's level set is not a curve.  Then the ``resolution`` - 1
    interior levels j / ``resolution``, each sampled at those of the
    ``resolution`` cosine-spaced x1 where its curve has a point, and there
    alone (:func:`_scan_levels`).  Last, where B rises along one
    of those curves and falls along the next, or the reverse, some level
    between them has a turn, or equal B at the curve's two ends: the level
    is bisected, one sampled curve at a time, until a root is accepted, a
    curve has no single direction or no float is left between the two
    levels.
    """
    if resolution < 50:
        raise ValueError("oracle resolution must be at least 50")
    *grid, x1, levels = _oracle_layout(resolution)
    w = _grid_tie(a, b, *grid)
    if w is not None:
        return w
    w, direction = _scan_levels(a, b, x1, levels)
    if w is not None:
        return w
    for j in np.flatnonzero(direction[:-1] * direction[1:] < 0).tolist():
        lo, hi = float(levels[j]), float(levels[j + 1])
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            w, (d,) = _scan_levels(a, b, x1, np.array([mid]))
            if w is not None:
                return w
            if d == direction[j]:
                lo = mid
            elif d == direction[j + 1]:
                hi = mid
            else:
                break
    return None


def oracle_search(a: AggregationFunction, b: AggregationFunction, *,
                  resolution: int = 200) -> tuple[Interval, Interval] | None:
    """Scan for a simultaneous collision of A and B along A's level sets.

    The first pair of ``interval_grid(resolution)`` intervals with exactly
    equal A and B values wins; otherwise B is sampled along A's closed-form
    level curves at ``resolution`` - 1 interior levels, at the cosine-spaced
    x1 where each curve has a point, each exact tie or turn of B there is
    polished by the array-valued :func:`bisect_root`, and the level between
    two curves along which B runs in opposite directions is bisected
    (:func:`_oracle_witness`).  Returns the first
    pair that ``make_witness`` accepts at ``ORACLE_CONFIRM``, or None.  An
    empty result is evidence at this resolution, not a proof of
    admissibility.
    """
    w = _oracle_witness(a, b, resolution)
    return None if w is None else (w.u, w.x)


# ---------------------------------------------------------------------------
# Quantified-weights diagnostic
# ---------------------------------------------------------------------------


def admissible_for_all_weight_orders(f: Generator, g: Generator,
                                     increasing_weights: bool = True) -> bool | None:
    """Whether the quasi-arithmetic pair is admissible for *every* weight
    pair w1 < w2 (or every w1 > w2).

    Never when both generators are infinite at one end; else whether the
    weight band has its lower end at 0 (w1 < w2 gives log rho < 0), or its
    upper end for w1 > w2.  None without a registry row for the pair.
    """
    if math.isinf(f.at_zero) and math.isinf(g.at_zero):
        return False
    if math.isinf(f.at_one) and math.isinf(g.at_one):
        return False
    band = _weight_band(f.kind, f.param, g.kind, g.param)
    if band is None:
        return None
    return (band.lo if increasing_weights else band.hi) == 0
