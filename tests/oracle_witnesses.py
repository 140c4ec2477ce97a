"""The oracle's witness for every battery orientation, bit for bit.

``tests/oracle_witnesses.csv`` holds one row per battery case, orientation
(ab is ``_oracle_witness(a, b, R)``, ba is ``_oracle_witness(b, a, R)``)
and resolution R in ``RESOLUTIONS``: the ``float.hex`` of the witness
endpoints and residuals, all empty when the oracle finds none.

Regenerate the table with

    PYTHONPATH=src python3 tests/oracle_witnesses.py > tests/oracle_witnesses.csv

The committed table was written by the oracle that evaluated A's
level-curve ends on every (level, x1) sample and lexsorted every grid
interval, so the tests hold the oracle to the same witnesses.
"""

from __future__ import annotations

import csv
import sys

from intervalorders.admissibility import _oracle_witness
from intervalorders.battery import build_battery

FIELDS = ("label", "orientation", "resolution",
          "u_lo", "u_hi", "x_lo", "x_hi", "residual_a", "residual_b")
RESOLUTIONS = (100, 200)


def witness_rows(resolutions: tuple[int, ...] = RESOLUTIONS) -> list[list[str]]:
    """The table's rows at ``resolutions``, by resolution, then case, then
    orientation."""
    rows = []
    for resolution in resolutions:
        for case in build_battery():
            for orientation, (a, b) in (("ab", (case.a, case.b)), ("ba", (case.b, case.a))):
                w = _oracle_witness(a, b, resolution)
                bits = [""] * 6 if w is None else [
                    float(t).hex() for t in (w.u.lo, w.u.hi, w.x.lo, w.x.hi,
                                             w.residual_a, w.residual_b)]
                rows.append([case.label, orientation, str(resolution), *bits])
    return rows


def main() -> None:
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(FIELDS)
    out.writerows(witness_rows())


if __name__ == "__main__":
    main()
