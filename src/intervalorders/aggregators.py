"""Aggregation functions on unit intervals.

An aggregation function maps each interval [u1, u2] in [0,1] to a single
value in [0,1], sends [0,0] to 0 and [1,1] to 1, and is monotone for the
componentwise order.  Four families are provided:

* weighted quasi-arithmetic means  f^{-1}((1-w) f(u1) + w f(u2)),
* plain weighted endpoint projections  (1-w) u1 + w u2,
* pairwise generator means  0.5 (f(u1) + f(u2))  for an increasing
  bijection f of [0,1],
* Archimedean t-norms and t-conorms through their additive generators.

Quasi-arithmetic means use the extended-real convention that -inf dominates
+inf, so e.g. the geometric-mean family returns 0 on any interval touching 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .generators import (Generator, _expr, bisect_root, config_float, exponential,
                         generator_from_config, identity, logarithm, logit, power,
                         validate_generator)
from .intervals import Interval

INF = math.inf


class AggregationError(ValueError):
    """Raised when a requested aggregation function violates its contract."""


# ---------------------------------------------------------------------------
# Descriptors: structured provenance consumed by the admissibility rules.
# ---------------------------------------------------------------------------


def _inv_finite(gen: Generator, y) -> np.ndarray:
    """gen^{-1}(y), NaN where y is not finite; callers hold np.errstate."""
    y = np.asarray(y, dtype=float)
    return np.where(np.isfinite(y), np.asarray(_expr(gen.inv)(y), dtype=float), np.nan)


# Each family's ``solve_hi(lo, target)`` is the closed-form level curve: the
# x2 with A([lo, x2]) = target, NaN where the formula leaves the generator's
# finite range.  ``target`` is one value or an array that broadcasts against
# ``lo``, such as a column of levels against a row of x1; the generator is
# evaluated on each apart and only its inverse on the broadcast shape.  K_0
# has no closed form and returns NaN shaped like ``lo``.  x2 is not clipped
# to [lo, 1]; the oracle does that.
#
# Each family's ``quasi_view()`` is the (f, w) of a weighted quasi-linear
# mean M_{f,w} of which A is a strictly increasing transform wherever A is
# not saturated, or None when there is no such mean.  A then has the level
# sets, and so the collisions, of M_{f,w}.
#
# Each family states where it saturates.  ``conjunctive``: A([0, x]) = 0
# for every x < 1; ``disjunctive``: A([x, 1]) = 1 for every x > 0, as for a
# quasi-linear mean whose generator is infinite at 0 (at 1).  A nilpotent
# t-norm (t-conorm) is also 0 (1) on a square [p, q]^2, its ``flat_square``.
# K_0 and K_1 have no view and state their ``projection_weight``.  A
# descriptor that states none of these is neither conjunctive nor
# disjunctive and has no square.


@dataclass(frozen=True)
class QuasiLinear:
    generator: Generator
    weight: float

    conjunctive = property(lambda self: math.isinf(self.generator.at_zero))
    disjunctive = property(lambda self: math.isinf(self.generator.at_one))

    def solve_hi(self, lo, target) -> np.ndarray:
        f, w = self.generator, self.weight
        fn = _expr(f.fn)
        with np.errstate(all="ignore"):
            return _inv_finite(f, (fn(target) - (1.0 - w) * fn(lo)) / w)

    def quasi_view(self) -> tuple[Generator, float]:
        """The mean itself: A = M_{f,w}."""
        return self.generator, self.weight


@dataclass(frozen=True)
class KProjection:
    w: float

    conjunctive = property(lambda self: self.w == 0.0)
    disjunctive = property(lambda self: self.w == 1.0)
    projection_weight = property(lambda self: self.w)

    def solve_hi(self, lo, target) -> np.ndarray:
        lo = np.asarray(lo, dtype=float)
        if self.w == 0.0:
            return np.full_like(lo, np.nan)  # A([lo, x2]) = lo for every x2
        return (target - (1.0 - self.w) * lo) / self.w

    def quasi_view(self) -> tuple[Generator, float] | None:
        """K_w = M_{id,w} for 0 < w < 1; None for the projections K_0, K_1."""
        return (identity(), self.w) if 0.0 < self.w < 1.0 else None


@dataclass(frozen=True)
class SchurPair:
    f: Generator
    conjunctive = disjunctive = False  # 0.5 f(x) > 0 and 0.5 (f(x) + 1) < 1

    def solve_hi(self, lo, target) -> np.ndarray:
        with np.errstate(all="ignore"):
            return _inv_finite(self.f, 2.0 * target - _expr(self.f.fn)(lo))

    def quasi_view(self) -> tuple[Generator, float]:
        """0.5 (f(u1) + f(u2)) = f(M_{f,1/2}), and f is increasing."""
        return self.f, 0.5


@dataclass(frozen=True)
class _Archimedean:
    """A t-norm or t-conorm: its generator g is capped at g(0) or g(1)."""

    generator: Generator
    conjunctive = disjunctive = False

    @property
    def _cap(self) -> float:
        return self.generator.at_zero if self.conjunctive else self.generator.at_one

    @property
    def is_strict(self) -> bool:
        return math.isinf(self._cap)

    def solve_hi(self, lo, target) -> np.ndarray:
        g = self.generator  # g(lo) + g(x2) = g(target), below the cap
        fn = _expr(g.fn)
        with np.errstate(all="ignore"):
            return _inv_finite(g, fn(target) - fn(lo))

    def quasi_view(self) -> tuple[Generator, float] | None:
        """A strict A = g^{-1}(2 g(M_{g,1/2})), increasing as g and g^{-1} run
        alike; None when nilpotent, where A saturates on a square."""
        return (self.generator, 0.5) if self.is_strict else None

    @functools.cached_property
    def flat_square(self) -> tuple[float, float] | None:
        """(p, q) with A saturated on [p, q]^2 when nilpotent: [0, m] for a
        t-norm, [m, 1] for a t-conorm, g(m) = cap / 2.  Bisected once."""
        if self.is_strict:
            return None
        m = bisect_root(self.generator.fn, 0.0, 1.0, 0.5 * self._cap).mid
        return (0.0, m) if self.conjunctive else (m, 1.0)


@dataclass(frozen=True)
class TNorm(_Archimedean):
    conjunctive = True  # generator strictly decreasing, t(1) = 0


@dataclass(frozen=True)
class TConorm(_Archimedean):
    disjunctive = True  # generator strictly increasing, s(0) = 0


class AggregationFunction:
    """An evaluatable interval aggregator with a family descriptor.

    ``values`` is vectorized over parallel endpoint arrays; calling the
    object with an :class:`Interval` gives the scalar value.
    """

    def __init__(self, name: str, descriptor, values_fn):
        self.name = name
        self.descriptor = descriptor
        self._values = values_fn
        lo = self.values(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        if abs(float(lo[0])) > 1e-12 or abs(float(lo[1]) - 1.0) > 1e-12:
            raise AggregationError(
                f"{name}: boundary conditions failed: A([0,0])={lo[0]!r}, A([1,1])={lo[1]!r}"
            )

    def values(self, lo, hi) -> np.ndarray:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        return self._values(lo, hi).clip(0.0, 1.0)

    def __call__(self, z: Interval) -> float:
        return float(self.values(np.array([z.lo]), np.array([z.hi]))[0])

    def __repr__(self) -> str:
        return f"AggregationFunction({self.name})"


# ---------------------------------------------------------------------------
# Quasi-arithmetic means
# ---------------------------------------------------------------------------


def quasi_linear_mean(gen: Generator, weight: float) -> AggregationFunction:
    """Weighted quasi-arithmetic mean f^{-1}((1-w) f(u1) + w f(u2)).

    The weight must lie strictly inside (0,1).  With f = log this is the
    weighted geometric mean u1^(1-w) u2^w; with f(x) = x^g the weighted
    root-mean-power; with f = logit the odds-weighted mean under the
    convention 0/0 = 0.
    """
    w = float(weight)
    if not 0.0 < w < 1.0:
        raise AggregationError(f"quasi-linear weight must lie in (0,1), got {w!r}")
    validate_generator(gen)
    # the x in {0, 1} where the generator is -inf (+inf), if any
    neg_end = 0.0 if gen.at_zero == -INF else 1.0 if gen.at_one == -INF else None
    pos_end = 0.0 if gen.at_zero == INF else 1.0 if gen.at_one == INF else None
    fn, inv = _expr(gen.fn), _expr(gen.inv)

    def values(lo, hi):
        with np.errstate(all="ignore"):
            a = np.asarray(fn(lo), dtype=float)
            b = np.asarray(fn(hi), dtype=float)
            s = (1.0 - w) * a + w * b
            if neg_end is not None:
                # -inf dominates +inf; without a -inf end, an s that would be
                # -inf here is -inf or NaN already, and both give 0
                s = np.where((a == -INF) | (b == -INF), -INF, s)
            finite = np.isfinite(s)
            if finite.all():
                return np.asarray(inv(s), dtype=float)
            core = np.asarray(inv(np.where(finite, s, 0.5)), dtype=float)
            out = np.where(finite, core, 0.0)
            if neg_end is not None:
                out = np.where(s == -INF, neg_end, out)
            if pos_end is not None:
                out = np.where(np.isposinf(s), pos_end, out)
        return out

    name = f"quasi_linear({gen.name}, w={w:g})"
    return AggregationFunction(name, QuasiLinear(gen, w), values)


def k_mean(w: float) -> AggregationFunction:
    """The weighted endpoint projection (1-w) u1 + w u2, w in [0,1]."""
    w = float(w)
    if not 0.0 <= w <= 1.0:
        raise AggregationError(f"projection weight must lie in [0,1], got {w!r}")

    def values(lo, hi):
        return (1.0 - w) * lo + w * hi

    return AggregationFunction(f"k_mean({w:g})", KProjection(w), values)


def schur_pair_mean(f: Generator) -> AggregationFunction:
    """The pairwise mean 0.5 (f(u1) + f(u2)) for an increasing bijection f.

    Requires f(0) = 0 and f(1) = 1 (within 1e-12).  Strict convexity of f
    makes the mean strictly Schur-convex; strict concavity makes it strictly
    Schur-concave.
    """
    validate_generator(f)
    if not f.increasing:
        raise AggregationError(f"{f.name}: pairwise mean needs an increasing bijection")
    if abs(f.at_zero) > 1e-12 or abs(f.at_one - 1.0) > 1e-12:
        raise AggregationError(
            f"{f.name}: pairwise mean needs f(0)=0 and f(1)=1, got "
            f"({f.at_zero!r}, {f.at_one!r})"
        )

    fn = _expr(f.fn)

    def values(lo, hi):
        with np.errstate(all="ignore"):
            return 0.5 * (np.asarray(fn(lo), float) + np.asarray(fn(hi), float))

    return AggregationFunction(f"pair_mean({f.name})", SchurPair(f), values)


# ---------------------------------------------------------------------------
# Archimedean t-norms / t-conorms via additive generators
# ---------------------------------------------------------------------------


def _validate_tnorm_generator(t: Generator) -> None:
    validate_generator(t)
    if t.increasing:
        raise AggregationError(f"{t.name}: a t-norm generator must be strictly decreasing")
    if abs(t.at_one) > 1e-12:
        raise AggregationError(f"{t.name}: a t-norm generator needs t(1) = 0")
    if not t.at_zero > 0:
        raise AggregationError(f"{t.name}: a t-norm generator needs t(0) > 0")


def _validate_tconorm_generator(s: Generator) -> None:
    validate_generator(s)
    if not s.increasing:
        raise AggregationError(f"{s.name}: a t-conorm generator must be strictly increasing")
    if abs(s.at_zero) > 1e-12:
        raise AggregationError(f"{s.name}: a t-conorm generator needs s(0) = 0")
    if not s.at_one > 0:
        raise AggregationError(f"{s.name}: a t-conorm generator needs s(1) > 0")


def _additive(d: _Archimedean, family: str) -> AggregationFunction:
    """A = g^{-1}(min(cap, g(u1) + g(u2))), and 0 for a t-norm, 1 for a
    t-conorm, where a strict g's sum is infinite."""
    g, cap, saturated = d.generator, d._cap, float(d.disjunctive)
    fn, inv = _expr(g.fn), _expr(g.inv)

    def values(lo, hi):
        with np.errstate(all="ignore"):
            v = np.minimum(np.asarray(fn(lo), float) + np.asarray(fn(hi), float), cap)
            finite = np.isfinite(v)
            core = np.asarray(inv(np.where(finite, v, 0.0)), float)
            return np.where(finite, core, saturated)

    return AggregationFunction(f"{family}({g.name})", d, values)


def tnorm(t: Generator) -> AggregationFunction:
    """Archimedean t-norm from its additive generator.

    Strict when t(0) = inf (e.g. -log gives the product), nilpotent when
    t(0) < inf (e.g. 1-x gives max(u1+u2-1, 0)).
    """
    _validate_tnorm_generator(t)
    return _additive(TNorm(t), "tnorm")


def tconorm(s: Generator) -> AggregationFunction:
    """Archimedean t-conorm from its additive generator.

    Strict when s(1) = inf (e.g. -log(1-x) gives u1 + u2 - u1*u2), nilpotent
    when s(1) < inf (e.g. the identity gives min(u1+u2, 1)).
    """
    _validate_tconorm_generator(s)
    return _additive(TConorm(s), "tconorm")


# ---------------------------------------------------------------------------
# Named means used throughout the examples and the verdict battery
# ---------------------------------------------------------------------------


def root_power_mean(gamma: float, w: float) -> AggregationFunction:
    """((1-w) u1^gamma + w u2^gamma)^(1/gamma)."""
    return quasi_linear_mean(power(gamma), w)


def exponential_mean(gamma: float, w: float) -> AggregationFunction:
    """log((1-w) e^(gamma u1) + w e^(gamma u2)) / gamma."""
    return quasi_linear_mean(exponential(gamma), w)


def geometric_mean(w: float) -> AggregationFunction:
    """u1^(1-w) u2^w, the log-generated mean; 0 on intervals touching 0."""
    return quasi_linear_mean(logarithm(), w)


def logit_mean(w: float) -> AggregationFunction:
    """The logit-generated mean; under 0/0 = 0 it equals
    u1^(1-w) u2^w / (u1^(1-w) u2^w + (1-u1)^(1-w) (1-u2)^w)."""
    return quasi_linear_mean(logit(), w)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

_FAMILIES = ("quasi_linear", "schur_pair", "tnorm", "tconorm", "k")


def aggregator_from_config(spec: dict) -> AggregationFunction:
    """Build an aggregation function from a config mapping.

    Formats: {"family": "quasi_linear", "generator": {...}, "weight": 0.5},
    {"family": "schur_pair", "f": {...}}, {"family": "tnorm", "generator":
    {...}}, {"family": "tconorm", "generator": {...}}, {"family": "k",
    "w": 0.5}.
    """
    if not isinstance(spec, dict) or "family" not in spec:
        raise AggregationError(
            f"aggregator spec must be a mapping with a 'family' key, got {spec!r}"
        )
    family = spec["family"]
    if family not in _FAMILIES:
        raise AggregationError(
            f"unknown aggregator family {family!r}; supported families: "
            + ", ".join(_FAMILIES)
        )
    if family == "k":
        if "w" not in spec:
            raise AggregationError("family 'k' requires a 'w' weight")
        return k_mean(config_float(spec, "w", AggregationError))
    if family == "quasi_linear":
        if "generator" not in spec or "weight" not in spec:
            raise AggregationError("family 'quasi_linear' requires 'generator' and 'weight'")
        return quasi_linear_mean(generator_from_config(spec["generator"]),
                                 config_float(spec, "weight", AggregationError))
    if family == "schur_pair":
        if "f" not in spec:
            raise AggregationError("family 'schur_pair' requires an 'f' generator spec")
        return schur_pair_mean(generator_from_config(spec["f"]))
    if family == "tnorm":
        if "generator" not in spec:
            raise AggregationError("family 'tnorm' requires a 'generator'")
        return tnorm(generator_from_config(spec["generator"]))
    # tconorm
    if "generator" not in spec:
        raise AggregationError("family 'tconorm' requires a 'generator'")
    return tconorm(generator_from_config(spec["generator"]))
