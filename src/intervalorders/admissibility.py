"""Deciding whether a pair of aggregation functions can totally order intervals.

A pair (A, B) is *admissible* when simultaneous equality A(u) = A(x) and
B(u) = B(x) forces u = x; the two-stage comparison "A first, B to break
ties" is then a total order refining the componentwise interval order.

The decision engine layers three kinds of evidence, strongest first:

1.  Constructive exclusions.  Pairs that saturate an endpoint (both send
    [0, x] to 0, or both send [x, 1] to 1) collide immediately; a nilpotent
    Archimedean t-norm or t-conorm admits an explicit collision built from
    its additive generator.  These verdicts ship a verified witness pair.
2.  Shape criteria on one quasi view.  Off its saturated part, every
    builtin aggregator but K_0, K_1 and the nilpotent t-norms and t-conorms
    is a strictly increasing transform of a weighted quasi-linear mean
    M_{f,w} (``quasi_view``): K_w = M_{id,w}, 0.5 (f(u1) + f(u2)) =
    f(M_{f,1/2}), a strict T = t^{-1}(2 t(M_{t,1/2})) and a strict S
    likewise.  It has the collisions of that mean, so one pair of
    quasi-linear rules decides every pair of views, across families too:
    by the shape class of g o f^{-1}, certified exactly by the closed-form
    registry; for a generator without a registry row the shape comes from a
    numeric scan, and the verdict's note says so.  Failed shape criteria
    are converted back into witnesses by locating a zero of the collision
    gap.
3.  The oracle.  A quantized exhaustive scan over a triangular grid of
    intervals.  Candidate pairs come from sorted (A, B) value buckets and
    are refined along A's level curves, which every builtin family gives in
    closed form through its generator's inverse (``solve_hi`` on the
    descriptor; bisection is the fallback).  A confirmed witness proves
    non-admissibility outright; an empty scan is evidence, not proof, and
    is labelled as such.

Verdicts from (A, B) and (B, A) always agree in outcome because the defining
condition is symmetric in the two components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .aggregators import (
    AggregationFunction,
    KProjection,
    QuasiLinear,
    SchurPair,
    TConorm,
    TNorm,
    k_mean,
    quasi_linear_mean,
)
from .generators import (
    NUMERIC_SAMPLES,
    Convexity,
    Generator,
    Monotonicity,
    ShapeInfo,
    bisect_root,
    collision_candidates,
    composite,
    registry_composite_shape,
)
from .intervals import Interval, interval_grid

WITNESS_TOL = 1e-9
WITNESS_GAP = 1e-4
ORACLE_QUANTUM = 1e-4
ORACLE_CONFIRM = 1e-10
# oracle_search refines its candidates this many at a time.
REFINE_BLOCK = 128
# The composite collision search decodes f-images of COLLISION_POINTS points
# of [COLLISION_MARGIN, 1 - COLLISION_MARGIN].
COLLISION_POINTS = 33
COLLISION_MARGIN = 0.02
# rule_k0_k1 samples a K_SAMPLES x K_SAMPLES grid; a step rising by at most
# K_FLAT is flat.
K_SAMPLES = 21
K_FLAT = 1e-9


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
    ra = abs(a(u) - a(x))
    rb = abs(b(u) - b(x))
    w = Witness(u, x, ra, rb)
    if ra <= tol and rb <= tol and w.endpoint_gap >= WITNESS_GAP:
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
    if isinstance(af.descriptor, KProjection):
        return af.descriptor.w
    view = quasi_view(af)
    return view[1] if view is not None and view[0].kind == "identity" else None


def is_conjunctive(af: AggregationFunction) -> bool:
    """True when A([0, x]) = 0 for every x (a descriptor-level fact)."""
    d = af.descriptor
    if isinstance(d, TNorm):
        return True
    if isinstance(d, KProjection):
        return d.w == 0.0
    if isinstance(d, QuasiLinear):
        return math.isinf(d.generator.at_zero)
    return False


def is_disjunctive(af: AggregationFunction) -> bool:
    """True when A([x, 1]) = 1 for every x."""
    d = af.descriptor
    if isinstance(d, TConorm):
        return True
    if isinstance(d, KProjection):
        return d.w == 1.0
    if isinstance(d, QuasiLinear):
        return math.isinf(d.generator.at_one)
    return False


# ---------------------------------------------------------------------------
# Constructive witnesses
# ---------------------------------------------------------------------------


def nilpotent_witness(t: Generator, s: Generator) -> tuple[Interval, Interval]:
    """Two distinct intervals equal under both the t-norm of ``t`` and the
    t-conorm of ``s``, for a pair with at least one nilpotent generator.

    Works inside the saturation region of the nilpotent side, where one of
    the two aggregations is pinned at its extreme and the other reduces to a
    plain generator-sum equation solved by bisection.
    """
    t_nil = math.isfinite(t.at_zero)
    s_nil = math.isfinite(s.at_one)
    if not (t_nil or s_nil):
        raise ValueError("at least one generator must be nilpotent")

    if t_nil and not s_nil:
        # T saturates to 0 below m_t; match the s-sums there.
        m = bisect_root(t.fn, 0.0, 1.0, 0.5 * t.at_zero).mid
        return _low_region_witness(s, m)
    if s_nil and not t_nil:
        # S saturates to 1 above l_s; match the t-sums there.
        ls = bisect_root(s.fn, 0.0, 1.0, 0.5 * s.at_one).mid
        u = 0.5 * (ls + 1.0)
        d1 = float(t.fn(u))
        d2 = float(t.fn(ls)) - float(t.fn(u))
        if abs(d1 - d2) <= 1e-14 * max(1.0, d1, d2):
            return Interval(u, u), Interval(ls, 1.0)
        if d1 < d2:
            x1 = bisect_root(t.fn, ls, u, 2.0 * float(t.fn(u))).mid
            return Interval(u, u), Interval(x1, 1.0)
        x2 = bisect_root(t.fn, u, 1.0, float(t.fn(u)) - d2).mid
        return Interval(u, u), Interval(ls, x2)

    # both nilpotent: stay below both saturation thresholds
    m_t = bisect_root(t.fn, 0.0, 1.0, 0.5 * t.at_zero).mid
    m_s = bisect_root(s.fn, 0.0, 1.0, 0.5 * s.at_one).mid
    return _low_region_witness(s, min(m_t, m_s))


def _low_region_witness(s: Generator, m: float) -> tuple[Interval, Interval]:
    u = 0.5 * m
    d1 = float(s.fn(u)) - float(s.fn(0.0))
    d2 = float(s.fn(m)) - float(s.fn(u))
    if abs(d1 - d2) <= 1e-14 * max(1.0, d1, d2):
        return Interval(u, u), Interval(0.0, m)
    if d1 < d2:
        x2 = bisect_root(s.fn, u, m, float(s.fn(u)) + d1).mid
        return Interval(u, u), Interval(0.0, x2)
    x1 = bisect_root(s.fn, 0.0, u, float(s.fn(u)) - d2).mid
    return Interval(u, u), Interval(x1, m)


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


def _collision_witness(f: Generator, g: Generator, w1: float, w2: float,
                       a: AggregationFunction, b: AggregationFunction) -> Witness | None:
    """Search the collision gap of the composite for a verified witness.

    The endpoint pairs are those of f's image of ``COLLISION_POINTS`` points
    of [COLLISION_MARGIN, 1 - COLLISION_MARGIN], widest first so witnesses
    are well separated.  Each candidate zero of the gap from
    :func:`collision_candidates` is decoded back to intervals and validated
    against the actual aggregation functions; the first that passes is
    returned.
    """
    h = composite(f, g).fn
    v1 = w1 if f.increasing else 1.0 - w1
    v2 = w2 if f.increasing else 1.0 - w2
    with np.errstate(all="ignore"):
        ts = np.sort(np.asarray(
            f.fn(np.linspace(COLLISION_MARGIN, 1.0 - COLLISION_MARGIN, COLLISION_POINTS)), float))
    pairs = sorted(combinations(map(float, ts), 2), key=lambda p: (-(p[1] - p[0]), p[0]))
    for x0, t1, t2 in collision_candidates(h, pairs, v1, v2, 48):
        w = make_witness(a, b, *_decode_vspace(f, v1, x0, t1, t2))
        if w is not None:
            return w
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


def _numeric_shape_note(f: Generator, g: Generator, shape: ShapeInfo) -> str:
    """Empty when the closed-form registry gives the shape of g o f^{-1};
    otherwise the label of numeric evidence that the verdict's note carries."""
    if registry_composite_shape(f, g) is not None:
        return ""
    return (f"composite {shape.convexity.value} on a {NUMERIC_SAMPLES}-sample "
            "numeric scan (evidence, not proof)")


def rule_quasi_equal_weights(f: Generator, g: Generator, w: float,
                             a: AggregationFunction | None = None,
                             b: AggregationFunction | None = None) -> Verdict | None:
    """Equal-weight quasi-arithmetic pairs are admissible exactly when the
    composite g o f^{-1} is strictly convex or strictly concave (and no
    endpoint exclusion applies).

    A and B default to M_{f,w} and M_{g,w}; any pair with these quasi views
    has the same collisions.  The rule id names the classical criterion:
    ``strict-archimedean-*`` for a strict t-norm with a strict t-conorm,
    ``pair-mean-*`` for pairwise means (with each other or with K_{1/2}).
    """
    a = a if a is not None else quasi_linear_mean(f, w)
    b = b if b is not None else quasi_linear_mean(g, w)
    sat = _saturation_verdict(a, b)
    if sat is not None:
        return sat
    kinds = {type(a.descriptor), type(b.descriptor)}
    stem = ("strict-archimedean" if kinds == {TNorm, TConorm}
            else "pair-mean" if SchurPair in kinds and kinds <= {SchurPair, KProjection}
            else "equal-weights")
    shape = composite(f, g).shape
    if shape.convexity.is_strict:
        return Verdict(Outcome.ADMISSIBLE, f"{stem}-shape")
    witness = _collision_witness(f, g, w, w, a, b)
    if witness is not None:
        return Verdict(Outcome.NOT_ADMISSIBLE, f"{stem}-collision", witness=witness)
    if shape.convexity in (Convexity.AFFINE, Convexity.MIXED):
        # shape non-strict, but no witness survived validation; report the
        # exclusion without one
        return Verdict(
            Outcome.NOT_ADMISSIBLE,
            f"{stem}-shape",
            note=_numeric_shape_note(f, g, shape)
            or "composite certified neither strictly convex nor strictly concave",
        )
    return None


def _weight_row_matches(shape, f_increasing: bool, w1: float, w2: float) -> bool:
    """Row lookup: weight comparison x f direction -> admissible composite shapes."""
    convexish = shape.convexity.implies_convex
    concavish = shape.convexity.implies_concave
    inc = shape.monotonicity is Monotonicity.STRICTLY_INCREASING
    dec = shape.monotonicity is Monotonicity.STRICTLY_DECREASING
    if w1 < w2:
        if f_increasing:
            return (convexish and inc) or (concavish and dec)
        return (convexish and dec) or (concavish and inc)
    if f_increasing:
        return (convexish and dec) or (concavish and inc)
    return (convexish and inc) or (concavish and dec)


def rule_quasi_unequal_weights(f: Generator, g: Generator, w1: float, w2: float,
                               a: AggregationFunction | None = None,
                               b: AggregationFunction | None = None) -> Verdict | None:
    """Sufficient criterion for distinct weights: a convexity/monotonicity
    row match of the composite.  No row plus no located collision leaves the
    pair undecided (this regime is not fully characterized).  A and B
    default to M_{f,w1} and M_{g,w2}, as in :func:`rule_quasi_equal_weights`."""
    if w1 == w2:
        raise ValueError("rule requires distinct weights")
    a = a if a is not None else quasi_linear_mean(f, w1)
    b = b if b is not None else quasi_linear_mean(g, w2)
    sat = _saturation_verdict(a, b)
    if sat is not None:
        return sat
    shape = composite(f, g).shape
    if _weight_row_matches(shape, f.increasing, w1, w2):
        return Verdict(Outcome.ADMISSIBLE, "weight-order-shape",
                       note=_numeric_shape_note(f, g, shape))
    witness = _collision_witness(f, g, w1, w2, a, b)
    if witness is not None:
        return Verdict(Outcome.NOT_ADMISSIBLE, "weighted-collision", witness=witness)
    return None


def rule_k0_k1(b: AggregationFunction, k_weight: float) -> Verdict | None:
    """Pairing the 0- or 1-projection with B.

    (K_0, B) orders totally iff x -> B(x1, x) is strictly increasing for each
    x1; dually (K_1, B) needs strict increase in the first argument.  The
    check runs on a ``K_SAMPLES`` x ``K_SAMPLES`` grid, where a step that
    rises by at most ``K_FLAT`` counts as flat, so an ADMISSIBLE answer is
    grid evidence while a flat stretch yields a verified collision.
    """
    if k_weight not in (0.0, 1.0):
        raise ValueError("rule applies to the endpoint projections only")
    k_af = k_mean(k_weight)
    anchors = np.linspace(0.0, 1.0, K_SAMPLES)
    for anchor in anchors:
        if k_weight == 0.0:
            frees = np.linspace(anchor, 1.0, K_SAMPLES)
            los = np.full_like(frees, anchor)
            his = frees
        else:
            frees = np.linspace(0.0, anchor, K_SAMPLES)
            los = frees
            his = np.full_like(frees, anchor)
        if frees[-1] - frees[0] < 1e-3:
            continue
        vals = b.values(los, his)
        diffs = np.diff(vals)
        flat = np.nonzero(diffs <= K_FLAT)[0]
        if flat.size:
            k = int(flat[0])
            u = Interval(float(los[k]), float(his[k]))
            x = Interval(float(los[k + 1]), float(his[k + 1]))
            w = make_witness(k_af, b, u, x) if k_weight == 0.0 else make_witness(b, k_af, u, x)
            if w is not None:
                rule = "k0-flat-second-arg" if k_weight == 0.0 else "k1-flat-first-arg"
                return Verdict(Outcome.NOT_ADMISSIBLE, rule, witness=w)
            return None
    rule = "k0-second-arg-strict" if k_weight == 0.0 else "k1-first-arg-strict"
    return Verdict(Outcome.ADMISSIBLE, rule, note=f"grid evidence, {K_SAMPLES}x{K_SAMPLES} samples")


def rule_tnorm_tconorm(t_af: AggregationFunction, s_af: AggregationFunction) -> Verdict | None:
    """An Archimedean t-norm paired with an Archimedean t-conorm.

    Any nilpotent side forces a constructive collision.  Two strict
    generators give None here: both sides have a quasi view, and
    :func:`rule_quasi_equal_weights` decides them.
    """
    td: TNorm = t_af.descriptor
    sd: TConorm = s_af.descriptor
    if td.is_strict and sd.is_strict:
        return None
    u, x = nilpotent_witness(td.generator, sd.generator)
    w = make_witness(t_af, s_af, u, x, tol=1e-12)
    return Verdict(Outcome.NOT_ADMISSIBLE, "nilpotent-collision", witness=w)


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

    if isinstance(a.descriptor, TNorm) and isinstance(b.descriptor, TConorm):
        nil = rule_tnorm_tconorm(a, b)
        if nil is not None:
            return nil

    if ka in (0.0, 1.0) and kb is None:
        return rule_k0_k1(b, ka)

    qa, qb = quasi_view(a), quasi_view(b)
    if qa is not None and qb is not None:
        (f, w1), (g, w2) = qa, qb
        if w1 == w2:
            return rule_quasi_equal_weights(f, g, w1, a, b)
        return rule_quasi_unequal_weights(f, g, w1, w2, a, b)

    return None


def check_pair(a: AggregationFunction, b: AggregationFunction, *,
               resolution: int = 200, tol: float = WITNESS_TOL,
               use_oracle: bool = True) -> Verdict:
    """Decide admissibility of (A, B).

    Rule verdicts come first (trying both orientations), the oracle last.  A
    NOT_ADMISSIBLE verdict carries a verified witness whenever one could be
    constructed; an UNKNOWN verdict after an empty oracle scan records which
    resolution was exhausted.
    """
    v = _rules_once(a, b)
    if v is None:
        v = _rules_once(b, a)
        if v is not None and v.witness is not None:
            v = Verdict(v.outcome, v.rule, v.witness.swapped(), v.note)
    if v is not None:
        return v
    if use_oracle:
        found = oracle_search(a, b, resolution=resolution)
        if found is not None:
            u, x = found
            w = make_witness(a, b, u, x, tol=tol)
            if w is not None:
                return Verdict(Outcome.NOT_ADMISSIBLE, "oracle", witness=w)
        return Verdict(
            Outcome.UNKNOWN, "oracle",
            note=f"no collision found at resolution {resolution} (evidence, not proof)",
        )
    return Verdict(Outcome.UNKNOWN, "rules", note="no criterion matched; oracle disabled")


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def _bisect_hi(a: AggregationFunction, x1s: np.ndarray, target
               ) -> tuple[np.ndarray, np.ndarray]:
    """Vector bisection of A([x1, x2]) = target over x2 in [x1, 1]; returns
    (x2s, bracketed).  ``target`` is one value or one per row of ``x1s``.
    The fallback of :func:`_level_hi` and its reference."""
    lo_val = a.values(x1s, x1s)
    hi_val = a.values(x1s, np.ones_like(x1s))
    lo_b = np.minimum(lo_val, hi_val) - 1e-13
    hi_b = np.maximum(lo_val, hi_val) + 1e-13
    ok = (lo_b <= target) & (target <= hi_b)
    increasing = hi_val >= lo_val
    lo_x = x1s.copy()
    hi_x = np.ones_like(x1s)
    for _ in range(60):
        mid = 0.5 * (lo_x + hi_x)
        v = a.values(x1s, mid)
        go_up = (v < target) == increasing
        lo_x = np.where(go_up, mid, lo_x)
        hi_x = np.where(go_up, hi_x, mid)
    return 0.5 * (lo_x + hi_x), ok


def _level_hi(a: AggregationFunction, x1s: np.ndarray, target
              ) -> tuple[np.ndarray, np.ndarray]:
    """The A-level curve A([x1, x2]) = target; returns (x2s, bracketed).
    ``target`` is one value or one per row of ``x1s``.

    x2 is the descriptor's closed-form ``solve_hi`` clipped to [x1, 1], and
    x1 itself where A([x1, x1]) >= target: on a flat level set that is the
    lowest solution, the one :func:`_bisect_hi` converges to.  Bracketed
    rows whose closed form is not finite, and every row of a descriptor
    without ``solve_hi``, are bisected instead.  x2 means nothing on rows
    that are not bracketed.
    """
    lo_val = a.values(x1s, x1s)
    hi_val = a.values(x1s, np.ones_like(x1s))
    ok = ((np.minimum(lo_val, hi_val) - 1e-13 <= target)
          & (target <= np.maximum(lo_val, hi_val) + 1e-13))
    solve = getattr(a.descriptor, "solve_hi", None)
    x2s = np.full_like(x1s, np.nan) if solve is None else solve(x1s, target)
    x2s = np.where(lo_val >= target, x1s, np.clip(x2s, x1s, 1.0))
    redo = ok & np.isnan(x2s)
    if redo.any():
        x2s[redo] = _bisect_hi(a, x1s[redo], np.broadcast_to(target, x1s.shape)[redo])[0]
    return x2s, ok


def _refine_candidate(a: AggregationFunction, b: AggregationFunction, u: Interval,
                      x1s: np.ndarray, x2s: np.ndarray, res: np.ndarray,
                      target_a: float, target_b: float) -> Interval | None:
    """The scalar end of one candidate's refinement along the A-level curve
    through u, whose values A(u) and B(u) are ``target_a`` and ``target_b``.

    ``x1s``, ``x2s`` and ``res`` are the candidate's bracketed samples of
    that curve and their B-residuals, from :func:`_refine_block`.  Each sign
    change of the residual is a potential simultaneous collision; one whose
    interpolated root lands within half the distinctness floor of u (the
    trivial solution x = u) is skipped, and the others are polished by
    :func:`bisect_root` on the B-residual along the curve and confirmed to
    ``ORACLE_CONFIRM`` in both residuals.  Exact zeros of the residual come
    last.  Returns the first confirmed interval, or None.
    """
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
        # cheap rejection of the trivial root x == u
        root_est = x1a + (x1b - x1a) * abs(res[k]) / (abs(res[k]) + abs(res[k + 1]))
        x2_est = float(np.interp(root_est, x1s, x2s))
        gap_est = max(abs(root_est - u.lo), abs(x2_est - u.hi))
        if gap_est < 0.5 * WITNESS_GAP:
            continue
        cand = polish(x1a, x1b)
        if cand is not None:
            return cand
    # exact-on-grid roots
    zeros = np.nonzero(res == 0.0)[0]
    for k in zeros:
        cand = Interval(float(x1s[k]), float(x2s[k]))
        gap = max(abs(cand.lo - u.lo), abs(cand.hi - u.hi))
        if gap >= WITNESS_GAP and abs(a(cand) - target_a) <= ORACLE_CONFIRM:
            return cand
    return None


def _live_rows(rows: np.ndarray, x1s: np.ndarray, x2s: np.ndarray, res: np.ndarray,
               ulo: np.ndarray, uhi: np.ndarray) -> np.ndarray:
    """The sorted rows that :func:`_refine_candidate` may confirm something
    on, as arrays: those with a sign flip between consecutive samples of the
    row whose estimated root is not certainly the trivial one, or with an
    exact zero at least ``WITNESS_GAP`` from u = [ulo, uhi] of its row.

    ``rows`` labels each sample (non-decreasing).  The root estimate is
    :func:`_refine_candidate`'s: linear in the residual, then ``np.interp``
    for x2, which this formula matches up to its last rounding while the root
    stays below the flip's upper sample.  A flip is rejected only there and
    1e-12 inside the ``gap_est`` bound, so no row that
    :func:`_refine_candidate` would keep is dropped.
    """
    sign = np.sign(res)
    k = np.flatnonzero((rows[:-1] == rows[1:]) & (sign[:-1] * sign[1:] < 0))
    x1a, x1b = x1s[k], x1s[k + 1]
    r0, r1 = np.abs(res[k]), np.abs(res[k + 1])
    root = x1a + (x1b - x1a) * r0 / (r0 + r1)
    x2_est = (x2s[k + 1] - x2s[k]) / (x1b - x1a) * (root - x1a) + x2s[k]
    r = rows[k]
    gap_est = np.maximum(np.abs(root - ulo[r]), np.abs(x2_est - uhi[r]))
    trivial = (root < x1b) & (gap_est < 0.5 * WITNESS_GAP - 1e-12)
    gap = np.maximum(np.abs(x1s - ulo[rows]), np.abs(x2s - uhi[rows]))
    return np.union1d(r[~trivial], rows[(res == 0.0) & (gap >= WITNESS_GAP)])


def _refine_block(a: AggregationFunction, b: AggregationFunction,
                  lo: np.ndarray, hi: np.ndarray, va: np.ndarray, vb: np.ndarray,
                  ms: np.ndarray, ns: np.ndarray, window: float
                  ) -> tuple[Interval, Interval] | None:
    """Refine the candidates (u, x) = (grid[m], grid[n]) of one block in
    array passes; the first, in block order, that :func:`_refine_candidate`
    confirms wins.

    Each candidate samples A's level curve through u at 201 x1 values in a
    window around x.lo; the whole block takes one ``linspace``, one
    :func:`_level_hi` call with per-row targets and one ``b.values`` call.
    Only the rows :func:`_live_rows` keeps go on to
    :func:`_refine_candidate`.
    """
    ulo, uhi, ta, tb = lo[ms], hi[ms], va[ms], vb[ms]
    xlo = lo[ns]
    n_samples = 201
    x1s = np.linspace(np.maximum(0.0, xlo - window), np.minimum(1.0, xlo + window),
                      n_samples, axis=1).ravel()
    rows = np.repeat(np.arange(ms.size), n_samples)
    x2s, ok = _level_hi(a, x1s, ta[rows])
    x1s, x2s, rows = x1s[ok], x2s[ok], rows[ok]
    res = b.values(x1s, x2s) - tb[rows]
    for i in _live_rows(rows, x1s, x2s, res, ulo, uhi).tolist():
        s, e = np.searchsorted(rows, (i, i + 1))
        u = Interval(float(ulo[i]), float(uhi[i]))
        cand = _refine_candidate(a, b, u, x1s[s:e], x2s[s:e], res[s:e],
                                 float(ta[i]), float(tb[i]))
        if cand is not None:
            return u, cand
    return None


_NEIGHBOURS = ((0, 1), (1, -1), (1, 0), (1, 1))


def _candidate_pairs(va: np.ndarray, vb: np.ndarray, quantum: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (m, n), m < n, of grid intervals whose (A, B) values fall
    in the same or adjacent ``quantum`` buckets and differ by at most 1.5
    quanta in both, ordered by (m, n).

    Buckets are keyed by one int64 per interval and found by sorting; each
    interval is paired with the members after it in its own bucket and with
    all members of the canonical half (``_NEIGHBOURS``) of its
    8-neighbourhood, so every pair at key distance at most one per
    coordinate comes out exactly once.
    """
    ka = np.floor(va / quantum).astype(np.int64)
    kb = np.floor(vb / quantum).astype(np.int64)
    kb -= kb.min()
    row = int(kb.max()) + 2  # the empty last column keeps offsets of -1..1 in their row
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


def oracle_search(a: AggregationFunction, b: AggregationFunction, *,
                  resolution: int = 200) -> tuple[Interval, Interval] | None:
    """Exhaustive quantized scan for a simultaneous collision of A and B.

    All grid intervals are bucketed by their (A, B) values rounded to
    ``ORACLE_QUANTUM``; pairs in the same or adjacent buckets whose values differ
    by at most 1.5 quanta are candidates, in lexicographic order of (u, x).
    A candidate whose values already agree to ``ORACLE_CONFIRM`` is a direct
    hit.  The candidates before the first direct hit are refined along the
    closed-form A-level curve through u, ``REFINE_BLOCK`` at a time
    (:func:`_refine_block`), and confirmed to ~1e-10 before being accepted.
    Returns the first confirmed pair, then the direct hit, or None.  An
    empty result is evidence at this resolution, not a proof of
    admissibility.
    """
    if resolution < 50:
        raise ValueError("oracle resolution must be at least 50")
    lo, hi = interval_grid(resolution)
    va = a.values(lo, hi)
    vb = b.values(lo, hi)
    window = 2.5 / resolution
    # interval_grid is in lexicographic order of (lo, hi), so the index
    # order of the candidates is the lexicographic order of (u, x)
    ms, ns = _candidate_pairs(va, vb, ORACLE_QUANTUM)
    gap = np.maximum(np.abs(lo[ms] - lo[ns]), np.abs(hi[ms] - hi[ns]))
    direct = np.flatnonzero((gap >= WITNESS_GAP)
                            & (np.abs(va[ms] - va[ns]) <= ORACLE_CONFIRM)
                            & (np.abs(vb[ms] - vb[ns]) <= ORACLE_CONFIRM))
    stop = int(direct[0]) if direct.size else ms.size
    for start in range(0, stop, REFINE_BLOCK):
        block = slice(start, min(start + REFINE_BLOCK, stop))
        found = _refine_block(a, b, lo, hi, va, vb, ms[block], ns[block], window)
        if found is not None:
            return found
    if direct.size:
        m, n = ms[stop], ns[stop]
        return Interval(float(lo[m]), float(hi[m])), Interval(float(lo[n]), float(hi[n]))
    return None


# ---------------------------------------------------------------------------
# Quantified-weights diagnostic
# ---------------------------------------------------------------------------


def admissible_for_all_weight_orders(f: Generator, g: Generator,
                                     increasing_weights: bool = True) -> bool | None:
    """Whether the quasi-arithmetic pair is admissible for *every* weight
    pair w1 < w2 (or every w1 > w2).

    For strictly monotone composite and finite shared endpoints this is
    equivalent to plain (non-strict) convexity or concavity of the composite,
    matched against the direction table.  Returns None when the shape cannot
    be certified in closed form, i.e. when the registry has no row for the
    pair.  Note this quantified answer must not be read as an iff for any
    single weight pair.
    """
    if math.isinf(f.at_zero) and math.isinf(g.at_zero):
        return False
    if math.isinf(f.at_one) and math.isinf(g.at_one):
        return False
    shape = registry_composite_shape(f, g)
    if shape is None or shape.convexity is Convexity.UNKNOWN:
        return None
    if shape.convexity is Convexity.MIXED:
        return False
    if shape.monotonicity not in (
        Monotonicity.STRICTLY_INCREASING,
        Monotonicity.STRICTLY_DECREASING,
    ):
        return None
    w1, w2 = (0.25, 0.75) if increasing_weights else (0.75, 0.25)
    return _weight_row_matches(shape, f.increasing, w1, w2)
