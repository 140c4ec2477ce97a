"""Which pairs of aggregation functions can totally order intervals?

A pair (A, B) orders intervals lexicographically: compare A-values first,
break ties with B.  The order is total and antisymmetric exactly when
simultaneous equality A(u) = A(x), B(u) = B(x) forces u = x.  The decision
engine combines closed-form criteria with constructive collision search.
"""

from intervalorders import (
    check_pair,
    composite,
    exponential_mean,
    geometric_mean,
    k_mean,
    logit_mean,
    power,
    root_power_mean,
)

print("== two endpoint projections with distinct weights ==")
v = check_pair(k_mean(0.3), k_mean(0.7))
print(f"verdict: {v.outcome.value}  (rule: {v.rule})")

print("\n== two geometric means ==")
# log blows up at 0, so every interval [0, x] aggregates to 0 under both
v = check_pair(geometric_mean(0.3), geometric_mean(0.7))
print(f"verdict: {v.outcome.value}  (rule: {v.rule})")
w = v.witness
print(f"witness: {w.u} and {w.x} agree under both components")

print("\n== weighted root-power means, equal weights ==")
# admissibility reduces to strict convexity/concavity of the composite
for exps in [(2.0, 0.5), (1.0, 3.0), (-1.0, 1.0)]:
    a, b = root_power_mean(exps[0], 0.5), root_power_mean(exps[1], 0.5)
    shape = composite(power(exps[0]), power(exps[1])).shape
    v = check_pair(a, b)
    print(f"exponents {exps}: composite {shape.value:18s} -> {v.outcome.value}")

print("\n== a mixed-shape composite collides ==")
v = check_pair(logit_mean(0.5), exponential_mean(1.0, 0.5))
print(f"verdict: {v.outcome.value}  (rule: {v.rule})")
w = v.witness
a, b = logit_mean(0.5), exponential_mean(1.0, 0.5)
print(f"witness: {w.u} vs {w.x}")
print(f"         A-values {a(w.u):.12f} = {a(w.x):.12f}")
print(f"         B-values {b(w.u):.12f} = {b(w.x):.12f}")

print("\n== distinct weights use the direction table ==")
cases = [
    ("root-power(2) at w=0.7 vs geometric at w=0.3", root_power_mean(2.0, 0.7),
     geometric_mean(0.3)),
    ("root-power(-1) at w=0.2 vs root-power(2) at w=0.8", root_power_mean(-1.0, 0.2),
     root_power_mean(2.0, 0.8)),
]
for label, a, b in cases:
    v = check_pair(a, b)
    print(f"{label}: {v.outcome.value}  (rule: {v.rule})")

print("\n== an honestly undecided regime ==")
# K_w against the w=1/2 mean of e^(-x) collides exactly for logit(w) in
# (-1, 0); at the float nearest e^-1 / (1 + e^-1) logit(w) is -1 within
# float error, the rules leave the pair undecided, and no collision turns
# up: the engine reports evidence, not a guess
a = k_mean(0.2689414213699951)
b = exponential_mean(-1.0, 0.5)
v = check_pair(a, b, resolution=120)
print(f"verdict: {v.outcome.value}  ({v.note})")

print("\n== verdicts are symmetric in the two components ==")
a, b = geometric_mean(0.4), exponential_mean(1.0, 0.4)
print("(A, B):", check_pair(a, b).outcome.value)
print("(B, A):", check_pair(b, a).outcome.value)
