"""Float reference for differential tests of the exact shape registry.

This is the classifier the registry used before it decided the sign pattern
of N = R_g - R_f in exact rational arithmetic: float coefficients, a
relative size under ``COEFF_TOL`` counted as zero, the quadratic root
formula, and roots within ``ROOT_EDGE`` of 0 or 1 not counted as interior.
Away from degenerate parameters the exact registry must give the same
``Convexity``.
"""

from __future__ import annotations

import math

from intervalorders.generators import Convexity, Generator

COEFF_TOL = 1e-12
ROOT_EDGE = 1e-9


def _r_coeffs(gen: Generator) -> tuple[float, float, float] | None:
    if gen.kind in ("identity", "one_minus"):
        return (0.0, 0.0, 0.0)
    if gen.kind == "power":
        g = float(gen.param)
        return (g - 1.0, -(g - 1.0), 0.0)
    if gen.kind == "exponential":
        g = float(gen.param)
        return (0.0, g, -g)
    if gen.kind in ("logarithm", "negated_log"):
        return (-1.0, 1.0, 0.0)
    if gen.kind == "negated_log_complement":
        return (0.0, 1.0, 0.0)
    if gen.kind == "logit":
        return (-1.0, 2.0, 0.0)
    return None


def _quadratic_sign_on_unit(c0: float, c1: float, c2: float) -> str:
    """'zero', 'pos', 'neg' or 'mixed' for c0 + c1*x + c2*x^2 on (0,1)."""
    scale = max(abs(c0), abs(c1), abs(c2))
    if scale <= COEFF_TOL:
        return "zero"

    def val(x: float) -> float:
        return c0 + c1 * x + c2 * x * x

    roots: list[float] = []
    if abs(c2) > COEFF_TOL * max(1.0, scale):
        disc = c1 * c1 - 4.0 * c0 * c2
        if disc > (COEFF_TOL * scale) ** 2:
            sq = math.sqrt(disc)
            roots = [(-c1 - sq) / (2.0 * c2), (-c1 + sq) / (2.0 * c2)]
    elif abs(c1) > COEFF_TOL * max(1.0, scale):
        roots = [-c0 / c1]

    interior = sorted(r for r in roots if ROOT_EDGE < r < 1.0 - ROOT_EDGE)
    cuts = [ROOT_EDGE] + interior + [1.0 - ROOT_EDGE]
    has_pos = has_neg = False
    for a, b in zip(cuts[:-1], cuts[1:]):
        v = val(0.5 * (a + b))
        if v > COEFF_TOL * scale:
            has_pos = True
        elif v < -COEFF_TOL * scale:
            has_neg = True
    if has_pos and has_neg:
        return "mixed"
    if has_pos:
        return "pos"
    if has_neg:
        return "neg"
    return "zero"


def reference_composite_shape(f: Generator, g: Generator) -> Convexity:
    cf = _r_coeffs(f)
    cg = _r_coeffs(g)
    if cf is None or cg is None:
        return Convexity.UNKNOWN
    pattern = _quadratic_sign_on_unit(*(a - b for a, b in zip(cg, cf)))
    if pattern == "zero":
        return Convexity.AFFINE
    if pattern == "mixed":
        return Convexity.MIXED
    dir_g = 1.0 if g.increasing else -1.0
    signed = dir_g if pattern == "pos" else -dir_g
    return Convexity.STRICTLY_CONVEX if signed > 0 else Convexity.STRICTLY_CONCAVE
