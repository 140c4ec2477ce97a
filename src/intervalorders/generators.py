"""Strictly monotone generator functions and convexity analysis of composites.

A *generator* is a strictly monotone continuous function f on [0,1] whose
values at 0 and 1 may be +/-inf.  Generators feed three constructions:
weighted quasi-arithmetic means, additive representations of Archimedean
t-norms/t-conorms, and pairwise endpoint means.  In every one of them the
decisive object is the composite

    h = g o f^{-1}        on the open interval f((0,1)),

whose shape governs whether the induced pair of aggregation functions can
order intervals without collisions.

Closed-form shape registry
--------------------------
For twice-differentiable strictly monotone f and g,

    sign(h''(y)) = sign(g'(x)) * sign(r_g(x) - r_f(x)),   x = f^{-1}(y),

where r_f = f''/f' is the log-derivative of f'.  For every builtin kind the
weighted numerator R_f(x) = x(1-x) * r_f(x) is a quadratic polynomial, so the
sign of h'' on (0,1) reduces to the sign pattern of the quadratic
N = R_g - R_f.  That pattern is decided exactly, in ``Fraction`` arithmetic
on coefficients built from the float parameters (which convert without
error), with no tolerance: on (0,1) a quadratic takes exactly the signs it
has just right of 0, just left of 1 and at an interior vertex.  This
registry is the only source of a shape: strictness on an open set cannot be
certified by finitely many samples, so a composite with a generator outside
the registry has convexity UNKNOWN and no weight band, and only witnesses,
and the oracle, can decide its pair.

The same N gives the weight band of a pair of weighted means M_{f,w1} and
M_{g,w2}: L = log|g'/f'| = c0 ln x - N(1) ln(1-x) - c2 x, as L' =
N/(x(1-x)), and M_{g,w2} turns along the level curves of M_{f,w1} where
L(x2) - L(x1) = logit(w1) - logit(w2).  ``_weight_band`` reads the range
(lo, hi) of L(x2) - L(x1) off L at 0, at N's sign changes and at 1.  An
end is exactly 0 where N keeps one sign; an end that is neither 0 nor
infinite is a float, and a weight ratio within ``BAND_EDGE`` times the
size of the terms of L that give it is left undecided.

Collision gap
-------------
Two endpoint pairs (s1,s2) and (t1,t2) with the same v1-weighted mean take
the form s1 = t1 + v1*x, s2 = t2 - (1-v1)*x for some deformation x in
(0, t2-t1].  The signed gap between the v2-weighted means of their h-images,

    G(x, t1, t2) = (1-v2)*(h(t1 + v1*x) - h(t1)) + v2*(h(t2 - (1-v1)*x) - h(t2)),

vanishes at some x > 0 exactly when two distinct pairs collide in both
weighted means at once.  One engine, ``collision_candidates``, looks for such
zeros: over caller-ordered endpoint pairs, given as two arrays, it yields
each zero of G inside a pair, then one zero of the full-deformation gap
chased across pairs.  The pairs are sampled ``COLLISION_BLOCK`` at a time:
one pass evaluates h once per side on every deformation of the block and
classifies each pair's row of gap samples with array operations.  Each zero
it yields is bisected by ``bisect_root``, the package's one root finder,
which evaluates the gap on a tree of ``BISECT_DEPTH`` halvings per call of
h.  ``find_collision`` takes the first candidate and the admissibility rules
validate candidates as witnesses; ``collision_scan`` runs the same block
pass and reports whether G keeps one sign instead.  ``collision_gap``
evaluates G at one point; the search itself evaluates G on arrays only.

Error state
-----------
Generators are infinite at some ends and are evaluated off (0,1), so their
numpy expressions divide by zero, overflow and make NaN on purpose.  The
public callables never warn: a builtin's ``fn`` and ``inv``, each
``Composite.fn``, ``collision_gap`` and ``bisect_root`` hold
``np.errstate(all="ignore")`` themselves.  A kernel enters that state once
per call and, inside it, calls a builtin's array expression, the ``expr``
of its ``fn`` or ``inv`` (``_expr``), not the public callable: the values
of each aggregation family, their ``solve_hi``, the composite and the
collision-gap block pass.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

INF = math.inf


class GeneratorError(ValueError):
    """Raised when a function fails the generator contract."""


class Convexity(Enum):
    STRICTLY_CONVEX = "strictly_convex"
    AFFINE = "affine"
    STRICTLY_CONCAVE = "strictly_concave"
    MIXED = "mixed"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Generator:
    """A strictly monotone continuous map [0,1] -> extended reals.

    ``fn`` and ``inv`` must accept numpy arrays.  ``at_zero``/``at_one`` are
    the (possibly infinite) endpoint values.  ``kind``/``param`` identify a
    builtin family for the closed-form shape registry; user-supplied
    generators leave them ``None``, and their composites have convexity
    UNKNOWN.
    """

    name: str
    fn: Callable
    inv: Callable
    increasing: bool
    at_zero: float
    at_one: float
    kind: str | None = None
    param: float | None = None

    def range_open(self) -> tuple[float, float]:
        """The open interval f((0,1)), endpoints possibly infinite."""
        a, b = self.at_zero, self.at_one
        return (min(a, b), max(a, b))


# validate_generator checks this many interior points of (0,1) and the
# inverse round-trip to this tolerance.
VALIDATION_SAMPLES = 41
ROUND_TRIP_TOL = 1e-9


# Generators that passed validate_generator, by identity.  A Generator is
# frozen, so one check holds for its life; an entry goes when its generator
# does, so a recycled id() never matches.
_VALIDATED: weakref.WeakValueDictionary[int, Generator] = weakref.WeakValueDictionary()


def validate_generator(gen: Generator) -> None:
    """Check strict monotonicity, finiteness on (0,1), and inverse round-trip,
    once per Generator object."""
    if _VALIDATED.get(id(gen)) is gen:
        return
    xs = np.linspace(0.0, 1.0, VALIDATION_SAMPLES + 2)[1:-1]
    with np.errstate(all="ignore"):
        ys = np.asarray(gen.fn(xs), dtype=float)
    if not np.all(np.isfinite(ys)):
        raise GeneratorError(f"{gen.name}: values must be finite on (0,1)")
    diffs = np.diff(ys)
    if gen.increasing:
        if not np.all(diffs > 0):
            raise GeneratorError(f"{gen.name}: not strictly increasing on the sample grid")
    else:
        if not np.all(diffs < 0):
            raise GeneratorError(f"{gen.name}: not strictly decreasing on the sample grid")
    with np.errstate(all="ignore"):
        back = np.asarray(gen.inv(ys), dtype=float)
    if not np.all(np.abs(back - xs) <= ROUND_TRIP_TOL):
        worst = float(np.max(np.abs(back - xs)))
        raise GeneratorError(
            f"{gen.name}: inverse round-trip error {worst:.3e} exceeds {ROUND_TRIP_TOL:g}")
    _VALIDATED[id(gen)] = gen


# ---------------------------------------------------------------------------
# Builtin generators
# ---------------------------------------------------------------------------


def _wrap(fn):
    """A builtin's public callable, which holds the error state, with the
    array expression it evaluates as its ``expr``."""
    def expr(x):
        return fn(np.asarray(x, dtype=float))

    wrapped = np.errstate(all="ignore")(expr)
    wrapped.expr = expr
    return wrapped


def _expr(fn: Callable) -> Callable:
    """A builtin generator's ``fn`` or ``inv`` without its error state, and
    any other callable as it is: for kernels that hold ``np.errstate``."""
    return getattr(fn, "expr", fn)


def power(gamma: float) -> Generator:
    """x -> x**gamma, gamma != 0.  Decreasing with f(0)=inf for gamma < 0."""
    g = float(gamma)
    if g == 0.0:
        raise GeneratorError("power generator needs a nonzero exponent")
    if not math.isfinite(g):
        raise GeneratorError(f"power generator needs a finite exponent, got {g!r}")
    return Generator(
        name=f"power({g:g})",
        fn=_wrap(lambda x: x**g),
        inv=_wrap(lambda y: y ** (1.0 / g)),
        increasing=g > 0,
        at_zero=0.0 if g > 0 else INF,
        at_one=1.0,
        kind="power",
        param=g,
    )


def exponential(gamma: float) -> Generator:
    """x -> exp(gamma*x), gamma != 0.  Finite at both endpoints."""
    g = float(gamma)
    if g == 0.0:
        raise GeneratorError("exponential generator needs a nonzero rate")
    if not math.isfinite(g):
        raise GeneratorError(f"exponential generator needs a finite rate, got {g!r}")
    try:
        at_one = math.exp(g)
    except OverflowError:
        raise GeneratorError(f"exponential generator rate {g!r} is too large: "
                             f"exp(rate) overflows a float") from None
    return Generator(
        name=f"exponential({g:g})",
        fn=_wrap(lambda x: np.exp(g * x)),
        inv=_wrap(lambda y: np.log(y) / g),
        increasing=g > 0,
        at_zero=1.0,
        at_one=at_one,
        kind="exponential",
        param=g,
    )


def logarithm() -> Generator:
    """x -> log x; f(0) = -inf."""
    return Generator(
        name="logarithm",
        fn=_wrap(np.log),
        inv=_wrap(np.exp),
        increasing=True,
        at_zero=-INF,
        at_one=0.0,
        kind="logarithm",
        param=None,
    )


def _logit(x: np.ndarray):
    # scipy.special.logit's formulas: log(x/(1-x)) loses precision near 1/2,
    # where log1p(s) - log1p(-s) with s = 2(x - 1/2) keeps it; both are
    # evaluated on every element and np.where keeps each element's own, so
    # the other one's NaN or inf is dropped; [()] gives a 0-d input a numpy
    # scalar back, as a ufunc does
    s = 2.0 * (x - 0.5)
    return np.where((x >= 0.3) & (x <= 0.65), np.log1p(s) - np.log1p(-s),
                    np.log(x / (1.0 - x)))[()]


def logit() -> Generator:
    """x -> log(x/(1-x)); infinite at both endpoints."""
    return Generator(
        name="logit",
        fn=_wrap(_logit),
        inv=_wrap(lambda y: 1.0 / (1.0 + np.exp(-y))),
        increasing=True,
        at_zero=-INF,
        at_one=INF,
        kind="logit",
        param=None,
    )


def negated_log() -> Generator:
    """x -> -log x; the additive generator of the product t-norm (strict)."""
    return Generator(
        name="negated_log",
        fn=_wrap(lambda x: -np.log(x)),
        inv=_wrap(lambda y: np.exp(-y)),
        increasing=False,
        at_zero=INF,
        at_one=0.0,
        kind="negated_log",
        param=None,
    )


def negated_log_complement() -> Generator:
    """x -> -log(1-x); the additive generator of the probabilistic sum (strict)."""
    return Generator(
        name="negated_log_complement",
        fn=_wrap(lambda x: -np.log1p(-x)),
        inv=_wrap(lambda y: -np.expm1(-y)),
        increasing=True,
        at_zero=0.0,
        at_one=INF,
        kind="negated_log_complement",
        param=None,
    )


def one_minus() -> Generator:
    """x -> 1-x; the nilpotent t-norm generator with t(0) = 1."""
    return Generator(
        name="one_minus",
        fn=_wrap(lambda x: 1.0 - x),
        inv=_wrap(lambda y: 1.0 - y),
        increasing=False,
        at_zero=1.0,
        at_one=0.0,
        kind="one_minus",
        param=None,
    )


def identity() -> Generator:
    return Generator(
        name="identity",
        fn=_wrap(lambda x: x + 0.0),
        inv=_wrap(lambda y: y + 0.0),
        increasing=True,
        at_zero=0.0,
        at_one=1.0,
        kind="identity",
        param=None,
    )


BUILTIN_KINDS = {
    "power": power,
    "exponential": exponential,
    "logarithm": logarithm,
    "logit": logit,
    "negated_log": negated_log,
    "negated_log_complement": negated_log_complement,
    "one_minus": one_minus,
    "identity": identity,
}

_PARAMETRIC_KINDS = {"power": "gamma", "exponential": "gamma"}


def config_float(spec: dict, key: str, error: type[ValueError]) -> float:
    """``spec[key]`` as ``float`` reads it, numeric strings included; a bool
    or any value ``float`` refuses raises ``error``, the reader's own class."""
    value = spec[key]
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise error(f"{key!r} must be a number, got {value!r}")


def generator_from_config(spec: dict) -> Generator:
    """Build a builtin generator from a config mapping like {"kind": "power", "gamma": 2.0}."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise GeneratorError(f"generator spec must be a mapping with a 'kind' key, got {spec!r}")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in BUILTIN_KINDS:
        known = ", ".join(sorted(BUILTIN_KINDS))
        raise GeneratorError(f"unknown generator kind {kind!r}; supported kinds: {known}")
    if kind in _PARAMETRIC_KINDS:
        pname = _PARAMETRIC_KINDS[kind]
        if pname not in spec:
            raise GeneratorError(f"generator kind {kind!r} requires a {pname!r} parameter")
        return BUILTIN_KINDS[kind](config_float(spec, pname, GeneratorError))
    return BUILTIN_KINDS[kind]()


# ---------------------------------------------------------------------------
# Closed-form shape registry
# ---------------------------------------------------------------------------

# Coefficients (c0, c1, c2) of R(x) = x(1-x) * f''(x)/f'(x) per builtin kind,
# as exact rationals: a float parameter converts to a Fraction without error.
# Affine kinds contribute zero; the postcomposed sign flip of negated_log
# leaves f''/f' unchanged, so it shares the logarithm row.


def _r_coeffs(kind: str | None, param) -> tuple[Fraction | int, ...] | None:
    if kind in ("identity", "one_minus"):
        return (0, 0, 0)
    if kind == "power":
        g = Fraction(param)
        return (g - 1, 1 - g, 0)
    if kind == "exponential":
        g = Fraction(param)
        return (0, g, -g)
    if kind in ("logarithm", "negated_log"):
        return (-1, 1, 0)
    if kind == "negated_log_complement":
        return (0, 1, 0)
    if kind == "logit":
        return (-1, 2, 0)
    return None


def _sign(v: Fraction | int) -> int:
    return (v > 0) - (v < 0)


def _quadratic_signs_on_unit(c0: Fraction | int, c1: Fraction | int,
                             c2: Fraction | int) -> frozenset[int]:
    """The nonzero signs that c0 + c1*x + c2*x^2 takes on the open interval (0,1).

    On (0,1) a quadratic is monotone except at its vertex, so it takes every
    sign it has just right of 0, just left of 1 and at an interior vertex,
    and no other.  Near an end the first nonzero term of the Taylor expansion
    there gives the sign.
    """
    s2 = _sign(c2)
    at_one, slope_at_one = c0 + c1 + c2, c1 + 2 * c2
    signs = {_sign(c0) or _sign(c1) or s2, _sign(at_one) or -_sign(slope_at_one) or s2}
    if 0 < -c1 * s2 < 2 * abs(c2):
        signs.add(_sign(4 * c0 * c2 - c1 * c1) * s2)
    signs.discard(0)
    return frozenset(signs)


@functools.cache
def _n_signs(f_kind: str | None, f_param, g_kind: str | None, g_param) -> frozenset[int] | None:
    """Signs of N = R_g - R_f on (0,1), or None without a registry row."""
    cf = _r_coeffs(f_kind, f_param)
    cg = _r_coeffs(g_kind, g_param)
    if cf is None or cg is None:
        return None
    return _quadratic_signs_on_unit(*(a - b for a, b in zip(cg, cf)))


# the relative float error bound of a weight band's ends (see above)
BAND_EDGE = 1e-9


def _log_terms(coeffs: tuple[float, float, float], x) -> np.ndarray:
    """The terms c0 ln x, -N(1) ln(1-x) and -c2 x of L at x, one row each;
    a term with a zero coefficient is 0, so that L(0) and L(1) are L's
    limits there."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        terms = (np.log(x), np.log1p(-x), x)
        return np.array([c * t if c else np.zeros(x.shape) for c, t in zip(coeffs, terms)])


class WeightBand(NamedTuple):
    """The inf and sup of L(x2) - L(x1), 0 < x1 < x2 < 1, and the (x1, x2)
    of each, 0 and 1 standing for L's limits there; ``coeffs`` are L's
    (c0, -N(1), -c2)."""

    lo: float
    hi: float
    lo_at: tuple[float, float]
    hi_at: tuple[float, float]
    slack: float
    coeffs: tuple[float, float, float]

    def log_q(self, x) -> np.ndarray:
        """L = log|g'/f'| at x."""
        return _log_terms(self.coeffs, x).sum(axis=0)


@functools.cache
def _weight_band(f_kind: str | None, f_param, g_kind: str | None, g_param) -> WeightBand | None:
    """The weight band of g o f^{-1}, or None without a registry row."""
    signs = _n_signs(f_kind, f_param, g_kind, g_param)
    if signs is None:
        return None
    c0, c1, c2 = (b - a for a, b in zip(_r_coeffs(f_kind, f_param), _r_coeffs(g_kind, g_param)))
    coeffs = (float(c0), float(-(c0 + c1 + c2)), float(-c2))
    xs = [0.0, 1.0]
    if len(signs) == 2:  # L turns where N changes sign
        if c2:
            q = -0.5 * (c1 + math.copysign(math.sqrt(c1 * c1 - 4 * c0 * c2), c1))
            roots = [q / c2, c0 / q]
        else:
            roots = [-c0 / c1]
        xs[1:1] = sorted(float(r) for r in roots if 0 < r < 1)
    terms = _log_terms(coeffs, xs)
    ls, size = terms.sum(axis=0), np.abs(terms).sum(axis=0)
    i, j = _pairs_of(np.arange(len(xs)))
    with np.errstate(invalid="ignore"):
        d = ls[j] - ls[i]  # NaN where L is infinite at both
    slack = BAND_EDGE * float(np.max(size[i] + size[j], where=np.isfinite(d), initial=0.0))
    lo, hi = np.nanargmin(d), np.nanargmax(d)
    at = [(xs[m], xs[n]) for m, n in zip(i.tolist(), j.tolist())]
    return WeightBand(min(0.0, float(d[lo])), max(0.0, float(d[hi])), at[lo], at[hi], slack, coeffs)


def registry_composite_shape(f: Generator, g: Generator) -> Convexity:
    """Exact convexity class of g o f^{-1} on f((0,1)) for builtin pairs.

    UNKNOWN when either generator lacks a registry row.  This is the
    package's only source of a convexity class.
    """
    signs = _n_signs(f.kind, f.param, g.kind, g.param)
    if signs is None:
        return Convexity.UNKNOWN
    if not signs:
        return Convexity.AFFINE
    if len(signs) == 2:
        return Convexity.MIXED
    # sign(h'') = sign(g') * sign(N)
    convex = (1 in signs) == g.increasing
    return Convexity.STRICTLY_CONVEX if convex else Convexity.STRICTLY_CONCAVE


# ---------------------------------------------------------------------------
# Sampling helpers
# ---------------------------------------------------------------------------


def _call_vectorized(fn, xs: np.ndarray) -> np.ndarray:
    """fn(xs) as a float array, or fn called on each float of xs when it
    does not map arrays; callers hold np.errstate."""
    try:
        out = np.asarray(fn(xs), dtype=float)
        if out.shape == xs.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(float(v))) for v in xs])


# ---------------------------------------------------------------------------
# Composite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Composite:
    """The map g o f^{-1} on the open interval f((0,1)), with its shape."""

    fn: Callable
    domain: tuple[float, float]
    shape: Convexity
    f: Generator
    g: Generator

    def __call__(self, y):
        return self.fn(y)


def composite(f: Generator, g: Generator) -> Composite:
    """Build g o f^{-1} with its shape: the closed-form registry's when both
    generators have a row, else convexity UNKNOWN."""
    validate_generator(f)
    validate_generator(g)

    f_inv, g_fn = _expr(f.inv), _expr(g.fn)

    def fn(y):
        with np.errstate(all="ignore"):
            return g_fn(f_inv(np.asarray(y, dtype=float)))

    return Composite(fn=fn, domain=f.range_open(), shape=registry_composite_shape(f, g), f=f, g=g)


# ---------------------------------------------------------------------------
# Bisection
# ---------------------------------------------------------------------------


class Bracket(NamedTuple):
    """Final bracket of :func:`bisect_root`; ``lo`` stays on the side of the
    start point."""

    lo: float
    hi: float

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)


# bisect_root evaluates the midpoints of this many halvings in one call of fn.
BISECT_DEPTH = 7
BISECT_HALVINGS = 200


def _halving_points(a: float, b: float, depth: int) -> np.ndarray:
    """a, b and the midpoint of every bracket that ``depth`` halvings of
    [a, b] can reach, in increasing order: 2**depth + 1 points.

    The bracket [pts[l], pts[r]] has its midpoint at pts[(l + r) // 2],
    computed as 0.5 * (pts[l] + pts[r]), level by level, just as a single
    halving of that bracket computes it."""
    size = 1 << depth
    pts = np.empty(size + 1)
    pts[0], pts[size] = a, b
    step = size
    while step > 1:
        pts[step // 2::step] = 0.5 * (pts[:-1:step] + pts[step::step])
        step //= 2
    return pts


@np.errstate(all="ignore")
def bisect_root(fn, lo: float, hi: float, target: float = 0.0) -> Bracket:
    """Bisect [lo, hi] for fn(x) = target, fn continuous with fn(lo) and
    fn(hi) on opposite sides of ``target``.

    ``fn`` maps a float64 array to an array of the same shape, element by
    element.  The bracket's ``lo`` end keeps the side of fn(lo) and its
    ``hi`` end the other side, so a caller that needs a point strictly on
    one side takes that end instead of ``mid``.  A midpoint where fn meets
    the target exactly, or is not finite, ends the search at once with both
    ends at that midpoint.  Otherwise the search runs until no float lies
    strictly inside the bracket, for at most 200 halvings.

    One call of fn takes the 2**``BISECT_DEPTH`` - 1 midpoints that the
    next ``BISECT_DEPTH`` halvings can reach (the first call takes lo as
    well), and the halvings then walk down that tree.  The brackets are
    exactly those of halving one midpoint at a time; the points off the
    walked path are evaluated and ignored.
    """
    a, b = lo, hi
    start_above = None
    done = 0
    while done < BISECT_HALVINGS:
        depth = min(BISECT_DEPTH, BISECT_HALVINGS - done)
        pts = _halving_points(a, b, depth)
        skip = 0 if start_above is None else 1  # pts[0] is lo in the first call
        vs = np.asarray(fn(pts[skip:-1]), dtype=float).tolist()
        if start_above is None:
            start_above = vs[0] > target
        pts = pts.tolist()
        left, right = 0, len(pts) - 1
        for _ in range(depth):
            i = (left + right) // 2
            m, v = pts[i], vs[i - skip]
            if m == a or m == b:
                return Bracket(a, b)
            if v == target or not math.isfinite(v):
                return Bracket(m, m)
            if (v > target) == start_above:
                a, left = m, i
            else:
                b, right = m, i
        done += depth
    return Bracket(a, b)


# ---------------------------------------------------------------------------
# Collision gap and scans
# ---------------------------------------------------------------------------


def collision_gap(x: float, t1: float, t2: float, v1: float, v2: float, h) -> float:
    """Signed gap between v2-weighted means of h at two endpoint pairs that
    share the same v1-weighted mean.

    The deformed pair is (t1 + v1*x, t2 - (1-v1)*x); a zero at some x > 0 is
    exactly a simultaneous collision of both weighted means.
    """
    if not t1 < t2:
        raise ValueError(f"need t1 < t2, got ({t1!r}, {t2!r})")
    if not (0.0 < v1 < 1.0 and 0.0 < v2 < 1.0):
        raise ValueError("weights v1, v2 must lie in (0,1)")
    if not 0.0 <= x <= (t2 - t1) * (1.0 + 1e-12):
        raise ValueError(f"deformation x={x!r} outside [0, t2-t1]")
    x = np.float64(min(float(x), t2 - t1))
    with np.errstate(all="ignore"):
        return float(_gap(h, x, t1, t2, v1, v2, float(h(t1)), float(h(t2))))


def _gap(h, x, t1, t2, v1: float, v2: float, h1, h2):
    """G(x, t1, t2) element by element over numpy arrays or scalars, with
    h(t1) and h(t2) given as h1 and h2."""
    return ((1.0 - v2) * (_call_vectorized(h, t1 + v1 * x) - h1)
            + v2 * (_call_vectorized(h, t2 - (1.0 - v1) * x) - h2))


class ScanOutcome(Enum):
    CLEAR = "clear"            # gap bounded away from zero with constant sign
    COLLISION = "collision"    # a zero (or sign change) was located
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ScanResult:
    outcome: ScanOutcome
    location: tuple[float, float, float] | None = None  # (x, t1, t2)
    sign: int | None = None

    ZERO_TOL = 1e-12
    CLEAR_TOL = 1e-9


def _domain_samples(domain: tuple[float, float], n: int) -> np.ndarray:
    """n points of a finite domain, ends included; n interior points of one
    with an infinite end, reached through fixed smooth bijections from (0,1)."""
    lo, hi = domain
    if not lo < hi:
        raise ValueError(f"degenerate interval ({lo!r}, {hi!r})")
    lo_f, hi_f = math.isfinite(lo), math.isfinite(hi)
    if lo_f and hi_f:
        return np.linspace(lo, hi, n)
    t = (np.arange(n) + 0.5) / n
    if lo_f:
        return lo + t / (1.0 - t)
    if hi_f:
        return hi - (1.0 - t) / t
    return np.tan(np.pi * (t - 0.5))


@functools.lru_cache(maxsize=4)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, built once per n and read-only."""
    ij = np.triu_indices(n, 1)
    for arr in ij:
        arr.flags.writeable = False
    return ij


def _pairs_of(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (ts[i], ts[j]) with i < j, in the order of
    ``itertools.combinations``, as two arrays of lower and upper ends."""
    i, j = _pair_indices(len(ts))
    return ts[i], ts[j]


# The collision-gap search samples this many endpoint pairs in one pass, so a
# pass holds COLLISION_BLOCK * n_x samples per array whatever the pair count.
COLLISION_BLOCK = 64


class _GapBlock:
    """The collision gap of a block of endpoint pairs (t1[i], t2[i]), one row
    per pair, sampled at n_x deformations in (0, t2-t1], and each row's class.

    A row is not ``finite``, ``flat`` (every |sample| below ``ZERO_TOL``),
    shows a strict sign change between adjacent samples (``flips``), or keeps
    one sign; ``zero`` marks the flat rows and those with a flip.
    """

    @np.errstate(all="ignore")
    def __init__(self, h, t1: np.ndarray, t2: np.ndarray, v1: float, v2: float, n_x: int):
        self.h, self.t1, self.t2, self.v1, self.v2 = h, t1, t2, v1, v2
        # np.linspace(0, t2 - t1, n_x + 1)[1:] row by row: linspace over the
        # whole block would change every row's formula when one step is 0
        width = t2 - t1
        xs = np.arange(1, n_x + 1) * (width / n_x)[:, None]
        xs[:, -1] = width
        up = _call_vectorized(h, (t1[:, None] + v1 * xs).ravel()).reshape(xs.shape)
        dn = _call_vectorized(h, (t2[:, None] - (1.0 - v1) * xs).ravel()).reshape(xs.shape)
        self.h1, self.h2 = _call_vectorized(h, t1), _call_vectorized(h, t2)
        gs = (1.0 - v2) * (up - self.h1[:, None]) + v2 * (dn - self.h2[:, None])
        tol = ScanResult.ZERO_TOL
        self.xs, self.gs = xs, gs
        self.pos, self.neg = gs > tol, gs < -tol
        self.finite = np.isfinite(gs).all(axis=1)
        self.flat = (np.abs(gs) < tol).all(axis=1)  # never holds on nan or inf
        self.flips = self.pos[:, :-1] & self.neg[:, 1:] | self.neg[:, :-1] & self.pos[:, 1:]
        self.zero = self.flat | self.finite & self.flips.any(axis=1)

    def candidate(self, i: int) -> tuple[float, float, float]:
        """(x, t1, t2) of row i's zero: the middle deformation of a flat row,
        else the first flip bisected by :func:`bisect_root` on the array
        gap, with the row's h(t1) and h(t2) from the block pass."""
        t1, t2 = float(self.t1[i]), float(self.t2[i])
        xs = self.xs[i]
        if self.flat[i]:
            return float(xs[len(xs) // 2]), t1, t2
        k = int(np.flatnonzero(self.flips[i])[0])
        v1, v2, h, h1, h2 = self.v1, self.v2, self.h, self.h1[i], self.h2[i]
        x0 = bisect_root(lambda x: _gap(h, x, t1, t2, v1, v2, h1, h2),
                         float(xs[k]), float(xs[k + 1])).mid
        return x0, t1, t2


def _gap_blocks(h, t1, t2, v1: float, v2: float, n_x: int):
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    for start in range(0, t1.size, COLLISION_BLOCK):
        rows = slice(start, start + COLLISION_BLOCK)
        yield _GapBlock(h, t1[rows], t2[rows], v1, v2, n_x)


def collision_candidates(h, t1, t2, v1: float, v2: float, n_x: int):
    """Yield deformations (x, t1, t2) at which the collision gap vanishes,
    over the endpoint pairs (t1[i], t2[i]) of two equal-length arrays.

    The pairs are sampled ``COLLISION_BLOCK`` at a time, each at n_x
    deformations in (0, t2-t1], with one call of h per block and side.
    First come the in-pair zeros, one per pair that shows one, in pair
    order: the middle deformation of a gap flat below ``ZERO_TOL``, else the
    bisected first strict sign change.  Then one zero of the
    full-deformation gap U(t1, t2) = G(t2-t1, t1, t2) across pairs: among
    the pairs whose sampled gap is finite and keeps one sign, U is bisected
    along the straight path from the first pair with U > 0 to the first
    with U < 0, which settles the case where every single pair keeps one
    sign.  Candidates are made lazily; the caller validates each and stops
    at the first that serves.
    """
    tol = ScanResult.ZERO_TOL
    start = end = None
    for block in _gap_blocks(h, t1, t2, v1, v2, n_x):
        for i in np.flatnonzero(block.zero):
            yield block.candidate(i)
        # flat rows end below ZERO_TOL and rows with a flip have both signs
        one_signed = block.finite & ~(block.pos.any(axis=1) & block.neg.any(axis=1))
        ups = np.flatnonzero(one_signed & (block.gs[:, -1] > tol))
        downs = np.flatnonzero(one_signed & (block.gs[:, -1] < -tol))
        if start is None and ups.size:
            start = float(block.t1[ups[0]]), float(block.t2[ups[0]])
        if end is None and downs.size:
            end = float(block.t1[downs[0]]), float(block.t2[downs[0]])
    if start is None or end is None:
        return
    (a1, a2), (b1, b2) = start, end

    def along(lmb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t1 = (1.0 - lmb) * a1 + lmb * b1
        t2 = (1.0 - lmb) * a2 + lmb * b2
        u = _gap(h, t2 - t1, t1, t2, v1, v2, _call_vectorized(h, t1), _call_vectorized(h, t2))
        return t1, t2, np.where(t2 > t1, u, np.nan)

    lmb = bisect_root(lambda lmb: along(lmb)[2], 0.0, 1.0).mid
    with np.errstate(all="ignore"):
        t1, t2, u = (float(v[0]) for v in along(np.array([lmb])))
    if math.isfinite(u) and t2 > t1:
        yield t2 - t1, t1, t2


def collision_scan(h, domain: tuple[float, float], v1: float, v2: float,
                   resolution: int = 32) -> ScanResult:
    """Grid search for zeros of the collision gap over endpoint pairs in
    ``domain`` and deformations x in (0, t2-t1].

    The pairs of ``resolution`` domain samples go through the block pass of
    :func:`collision_candidates`, and the scan returns at the first pair
    with an in-pair zero.  CLEAR requires |gap| >= 1e-9 with one constant
    sign across all samples.  COLLISION is reported on a strict sign change
    between adjacent samples (refined by bisection) or when the gap of one
    pair sits entirely below 1e-12, as with an affine h at equal weights.
    Anything else, including a sign change through grazing samples, is
    INCONCLUSIVE.
    """
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    t1, t2 = _pairs_of(_domain_samples(domain, resolution))
    signs_seen: set[int] = set()
    min_abs = math.inf
    all_finite = True
    for block in _gap_blocks(h, t1, t2, v1, v2, min(64, resolution)):
        zeros = np.flatnonzero(block.zero)
        if zeros.size:
            return ScanResult(ScanOutcome.COLLISION, block.candidate(zeros[0]), 0)
        ok = block.finite
        all_finite = all_finite and bool(ok.all())
        # a row with both signs and no strict flip grazes zero in between,
        # and so does any row min_abs reads below ZERO_TOL: neither can
        # leave a scan CLEAR
        if block.pos[ok].any():
            signs_seen.add(1)
        if block.neg[ok].any():
            signs_seen.add(-1)
        if ok.any():
            min_abs = min(min_abs, float(np.abs(block.gs[ok]).min()))
    if len(signs_seen) == 2:
        # opposite signs on different endpoint pairs: a zero exists along a
        # continuous path between them (located by find_collision)
        return ScanResult(ScanOutcome.INCONCLUSIVE)
    if all_finite and min_abs >= ScanResult.CLEAR_TOL and len(signs_seen) == 1:
        return ScanResult(ScanOutcome.CLEAR, sign=signs_seen.pop())
    return ScanResult(ScanOutcome.INCONCLUSIVE)


def find_collision(h, domain: tuple[float, float], v1: float, v2: float,
                   resolution: int = 48) -> tuple[float, float, float] | None:
    """Locate (x, t1, t2) with a near-zero collision gap, or None.

    The first candidate of :func:`collision_candidates` over all pairs of
    ``resolution`` domain samples; unlike :func:`collision_scan` this also
    finds zeros that lie across endpoint pairs.
    """
    n = max(16, resolution)
    t1, t2 = _pairs_of(_domain_samples(domain, n))
    return next(collision_candidates(h, t1, t2, v1, v2, min(64, n)), None)
