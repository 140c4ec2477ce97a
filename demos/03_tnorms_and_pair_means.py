"""Archimedean t-norms, t-conorms, and pairwise generator means.

Archimedean t-norms aggregate conjunctively (below the minimum), t-conorms
disjunctively (above the maximum).  Both are driven by additive generators:
T(a, b) = t^{-1}(min(t(a) + t(b), t(0))).  Pairing a t-norm with a t-conorm
can produce a total order, but only when both are strict and the composite
of their generators bends one way everywhere.
"""

from intervalorders import (
    Interval,
    check_pair,
    composite,
    identity,
    k_mean,
    negated_log,
    negated_log_complement,
    nilpotent_witness,
    one_minus,
    power,
    schur_classify,
    schur_pair_mean,
    tconorm,
    tnorm,
)

product = tnorm(negated_log())               # t(x) = -log x, strict
lukasiewicz = tnorm(one_minus())             # t(x) = 1 - x, nilpotent
prob_sum = tconorm(negated_log_complement()) # s(x) = -log(1-x), strict
bounded_sum = tconorm(identity())            # s(x) = x, nilpotent

z = Interval(0.3, 0.8)
print(f"on {z}:")
print(f"  product t-norm        {product(z):.4f}   (= 0.3 * 0.8)")
print(f"  Lukasiewicz t-norm    {lukasiewicz(z):.4f}   (= max(0.3 + 0.8 - 1, 0))")
print(f"  probabilistic sum     {prob_sum(z):.4f}   (= 0.3 + 0.8 - 0.24)")
print(f"  bounded sum           {bounded_sum(z):.4f}   (= min(1.1, 1))")

print("\n== strict + strict: decided by the generator composite ==")
shape = composite(negated_log(), negated_log_complement()).shape
print("conorm-over-norm composite is", shape.value)
v = check_pair(product, prob_sum)
print("product with probabilistic sum:", v.outcome.value, f"(rule: {v.rule})")

print("\n== any nilpotent side collides, constructively ==")
for label, t_gen, s_gen in [
    ("Lukasiewicz + bounded sum", one_minus(), identity()),
    ("product + bounded sum", negated_log(), identity()),
]:
    u, x = nilpotent_witness(t_gen, s_gen)
    t_af, s_af = tnorm(t_gen), tconorm(s_gen)
    print(f"{label}: witness {u} vs {x}")
    print(f"    T-values {t_af(u):.6f} / {t_af(x):.6f};"
          f"  S-values {s_af(u):.6f} / {s_af(x):.6f}")

print("\n== pairwise generator means ==")
# A(z) = 0.5 (f(z1) + f(z2)) for an increasing bijection f of [0,1]
square = schur_pair_mean(power(2.0))
sqrt = schur_pair_mean(power(0.5))
print(f"square-mean of {z}: {square(z):.4f};  sqrt-mean: {sqrt(z):.4f}")
v = check_pair(square, sqrt)
print("square-mean with sqrt-mean:", v.outcome.value, f"(rule: {v.rule})")

print("\n== Schur classes along constant-sum diagonals ==")
for label, af in [
    ("square pair-mean", square),
    ("sqrt pair-mean", sqrt),
    ("upper endpoint projection", k_mean(1.0)),
    ("midpoint projection", k_mean(0.5)),
    ("product t-norm", product),
]:
    print(f"  {label}: {schur_classify(af).value}")

print("\nspreading an interval at fixed endpoint sum moves the classes apart:")
for spread in (0.0, 0.2, 0.4):
    zz = Interval(0.5 - spread / 2, 0.5 + spread / 2)
    print(f"  spread {spread:.1f}: square-mean {square(zz):.4f}, "
          f"sqrt-mean {sqrt(zz):.4f}")
