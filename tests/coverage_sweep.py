"""The coverage sweep: every pair of 30 builtin aggregators.

``sweep_aggregators()`` lists them; ``tests/coverage_sweep.csv`` holds, for
each of the 435 pairs in ``itertools.combinations`` order, the rules'
outcome and rule id (``check_pair(a, b, use_oracle=False)``) and whether
``oracle_search(a, b)`` found a collision at R=100 and at R=200.

Regenerate the table with

    PYTHONPATH=src python3 tests/coverage_sweep.py > tests/coverage_sweep.csv

The oracle columns record the oracle of the source tree on ``PYTHONPATH``;
the committed table was written by the bucketed-candidate oracle that the
level-curve scan replaced, so the tests can hold the scan to finding at
least the collisions it found.
"""

from __future__ import annotations

import csv
import sys
from itertools import combinations

from intervalorders import (
    check_pair,
    exponential_mean,
    geometric_mean,
    identity,
    k_mean,
    logit_mean,
    negated_log,
    negated_log_complement,
    one_minus,
    oracle_search,
    power,
    root_power_mean,
    schur_pair_mean,
    tconorm,
    tnorm,
)

FIELDS = ("a", "b", "outcome", "rule", "oracle_100", "oracle_200")


def sweep_aggregators():
    """The 30 aggregators of the sweep, in a fixed order; their names are
    distinct."""
    return [
        *(k_mean(w) for w in (0.0, 0.2, 0.5, 0.8, 1.0)),
        *(root_power_mean(g, w) for g in (0.5, 2.0, 3.0) for w in (0.3, 0.5, 0.7)),
        *(exponential_mean(g, w) for g in (-1.0, 1.0, 3.0) for w in (0.3, 0.5)),
        *(geometric_mean(w) for w in (0.3, 0.5)),
        *(logit_mean(w) for w in (0.3, 0.5)),
        tnorm(negated_log()),
        tconorm(negated_log_complement()),
        tnorm(one_minus()),
        tconorm(identity()),
        schur_pair_mean(power(2.0)),
        schur_pair_mean(power(0.5)),
    ]


def sweep_pairs():
    """The 435 pairs (a, b) in ``combinations`` order."""
    return list(combinations(sweep_aggregators(), 2))


def main() -> None:
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(FIELDS)
    for a, b in sweep_pairs():
        v = check_pair(a, b, use_oracle=False)
        found = [oracle_search(a, b, resolution=r) is not None for r in (100, 200)]
        out.writerow([a.name, b.name, v.outcome.value, v.rule, *(int(f) for f in found)])


if __name__ == "__main__":
    main()
