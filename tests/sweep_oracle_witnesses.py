"""The oracle's witness for every coverage-sweep pair, bit for bit.

``tests/sweep_oracle_witnesses.csv`` holds one row per pair of
``coverage_sweep.sweep_pairs()`` and orientation (ab is
``oracle_search(a, b, resolution=100)``, ba is ``oracle_search(b, a,
resolution=100)``): the ``float.hex`` of the witness endpoints, all empty
when the oracle finds none.

Regenerate the table with

    PYTHONPATH=src python3 tests/sweep_oracle_witnesses.py > tests/sweep_oracle_witnesses.csv

The committed table was written by the oracle that solved A's level
curves on the whole (level, x1) table, so the tests hold the scan over
bracketed cells to the same witnesses.
"""

from __future__ import annotations

import csv
import sys

from coverage_sweep import sweep_pairs
from intervalorders import oracle_search

FIELDS = ("a", "b", "orientation", "u_lo", "u_hi", "x_lo", "x_hi")
RESOLUTION = 100


def witness_rows() -> list[list[str]]:
    """The table's rows, by pair, then orientation."""
    rows = []
    for a, b in sweep_pairs():
        for orientation, (x, y) in (("ab", (a, b)), ("ba", (b, a))):
            found = oracle_search(x, y, resolution=RESOLUTION)
            bits = [""] * 4 if found is None else [
                float(t).hex() for t in (found[0].lo, found[0].hi, found[1].lo, found[1].hi)]
            rows.append([a.name, b.name, orientation, *bits])
    return rows


def main() -> None:
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(FIELDS)
    out.writerows(witness_rows())


if __name__ == "__main__":
    main()
