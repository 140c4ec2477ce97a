"""The level-curve witnesses of four pairs that only the weight band excludes,
bit for bit.

``tests/band_witnesses.csv`` holds one row per pair of ``band_pairs()``:
the names of A and B and the ``float.hex`` of the endpoints of the witness
of ``check_pair(a, b, use_oracle=False)``.  On each pair log rho lies inside
the weight band of the two quasi views, the collision-gap search finds
nothing, and the witness comes from the turn of B along a level curve of A
(``_band_witness``).  ``oracle_search`` at resolution 200 misses the first
and the last of them.

Regenerate the table with

    PYTHONPATH=src python3 tests/band_witnesses.py > tests/band_witnesses.csv
"""

from __future__ import annotations

import csv
import sys

from intervalorders import (
    check_pair,
    exponential,
    exponential_mean,
    geometric_mean,
    k_mean,
    negated_log_complement,
    power,
    quasi_linear_mean,
)

FIELDS = ("a", "b", "u_lo", "u_hi", "x_lo", "x_hi")


def band_pairs():
    """The four (a, b): K_0.269 against the w=1/2 mean of e^(-x), just past
    the weight threshold 0.2689; the two sweep pairs the band newly
    excludes; a geometric mean against a -log(1-x) mean."""
    return [
        (k_mean(0.269), exponential_mean(-1.0, 0.5)),
        (k_mean(0.2), quasi_linear_mean(power(0.5), 0.7)),
        (quasi_linear_mean(power(0.5), 0.7), quasi_linear_mean(exponential(-1.0), 0.3)),
        (geometric_mean(0.22), quasi_linear_mean(negated_log_complement(), 0.21)),
    ]


def witness_rows() -> list[list[str]]:
    rows = []
    for a, b in band_pairs():
        w = check_pair(a, b, use_oracle=False).witness
        rows.append([a.name, b.name, *(float(v).hex() for v in (w.u.lo, w.u.hi, w.x.lo, w.x.hi))])
    return rows


def main() -> None:
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(FIELDS)
    out.writerows(witness_rows())


if __name__ == "__main__":
    main()
