"""Ranking unit intervals with projection orders.

The componentwise order on intervals is only partial: [0.2, 0.6] and
[0.3, 0.5] are incomparable.  A weighted endpoint projection
K_w([a, b]) = (1-w)a + w*b compresses each interval to a point; comparing
one projection and breaking ties with a second gives a total order that
extends the componentwise one.
"""

import numpy as np

from intervalorders import (
    AlphaBetaOrder,
    Interval,
    compare,
    k_mean,
    partial_compare,
    refines_interval_order,
    sort_intervals,
)

u = Interval(0.2, 0.6)
x = Interval(0.3, 0.5)
print("componentwise comparison of", u, "and", x, "->", partial_compare(u, x).value)

print("\nprojections of", u, "at several weights:")
for w in (0.0, 0.25, 0.5, 0.75, 1.0):
    print(f"  w = {w:4.2f}:  {k_mean(w)(u):.4f}")

# Four classical orders are projection orders for specific weight pairs.
named = {
    "lexicographic      (alpha, beta) = (0, 1)": AlphaBetaOrder(0.0, 1.0),
    "antilexicographic  (alpha, beta) = (1, 0)": AlphaBetaOrder(1.0, 0.0),
    "midpoint-then-upper (0.5, 1)": AlphaBetaOrder(0.5, 1.0),
    "midpoint-then-lower (0.5, 0)": AlphaBetaOrder(0.5, 0.0),
}

items = [
    Interval(0.2, 0.9),
    Interval(0.2, 0.3),
    Interval(0.1, 1.0),
    Interval(0.3, 0.5),
    Interval(0.4, 0.4),
]

print("\nranking the sample set under each order:")
for label, order in named.items():
    ranked = sort_intervals(order, items)
    print(f"  {label}:")
    print("   ", " < ".join(str(z) for z in ranked))

# The two intervals above tie at the midpoint, so the second weight decides.
order = AlphaBetaOrder(0.5, 1.0)
a, b = Interval(0.3, 0.5), Interval(0.2, 0.6)
print("\nmidpoint tie:", a, "vs", b, "->", compare(order, a, b).name)

# Every projection order extends the componentwise order (checked on a grid).
print("\nextends the componentwise order:",
      refines_interval_order(order, resolution=40))

# Ties in both projections force equality, so ranking is reproducible.
rng = np.random.default_rng(7)
raw = rng.uniform(size=(8, 2))
noisy = [Interval(min(p), max(p)) for p in raw]
print("\na reproducible ranking of random intervals:")
midpoint = k_mean(0.5)
for z in sort_intervals(order, noisy):
    print(f"  [{z.lo:.3f}, {z.hi:.3f}]   midpoint {midpoint(z):.3f}")
