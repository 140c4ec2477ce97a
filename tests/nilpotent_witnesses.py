"""``nilpotent_witness(t, s)`` on 30 generator pairs, bit for bit.

``tests/nilpotent_witnesses.csv`` holds one row per t-norm generator t in
``T_GENERATORS`` and t-conorm generator s in ``S_GENERATORS``, in that
nested order: the ``float.hex`` of the witness endpoints, or the name of
the exception the call raises (a pair of two strict generators has no
nilpotent side), with the endpoints empty.  Four of the generators are
hand-built, without a registry row.

Regenerate the table with

    PYTHONPATH=src python3 tests/nilpotent_witnesses.py > tests/nilpotent_witnesses.csv

The committed table was written by the construction with one hand-written
branch per nilpotent side (a nilpotent t-norm, a nilpotent t-conorm, or
both) that the saturated-square witness replaced, so the tests hold the
new construction to the same floats.
"""

from __future__ import annotations

import csv
import sys

import numpy as np

from intervalorders import (
    Generator,
    identity,
    negated_log,
    negated_log_complement,
    nilpotent_witness,
    one_minus,
    power,
)

FIELDS = ("t", "s", "u_lo", "u_hi", "x_lo", "x_hi", "error")


def one_minus_square() -> Generator:
    """t(x) = 1 - x^2, a nilpotent t-norm generator with t(0) = 1."""
    return Generator(name="1-x^2", fn=lambda x: 1.0 - np.asarray(x, float) ** 2,
                     inv=lambda y: np.sqrt(1.0 - np.asarray(y, float)),
                     increasing=False, at_zero=1.0, at_one=0.0)


def one_minus_sqrt() -> Generator:
    """t(x) = 1 - sqrt(x), a nilpotent t-norm generator with t(0) = 1."""
    return Generator(name="1-sqrt(x)", fn=lambda x: 1.0 - np.sqrt(np.asarray(x, float)),
                     inv=lambda y: (1.0 - np.asarray(y, float)) ** 2,
                     increasing=False, at_zero=1.0, at_one=0.0)


def twice_cubed_complement() -> Generator:
    """t(x) = 2 (1 - x)^3, a nilpotent t-norm generator with t(0) = 2."""
    return Generator(name="2(1-x)^3", fn=lambda x: 2.0 * (1.0 - np.asarray(x, float)) ** 3,
                     inv=lambda y: 1.0 - np.cbrt(0.5 * np.asarray(y, float)),
                     increasing=False, at_zero=2.0, at_one=0.0)


def exp_minus_one() -> Generator:
    """s(x) = e^x - 1, a nilpotent t-conorm generator with s(1) = e - 1."""
    return Generator(name="e^x-1", fn=lambda x: np.expm1(np.asarray(x, float)),
                     inv=lambda y: np.log1p(np.asarray(y, float)),
                     increasing=True, at_zero=0.0, at_one=float(np.expm1(1.0)))


T_GENERATORS = (one_minus, negated_log, one_minus_square, one_minus_sqrt,
                twice_cubed_complement)
S_GENERATORS = (identity, negated_log_complement, lambda: power(2.0), lambda: power(0.5),
                lambda: power(3.0), exp_minus_one)


def generator_pairs() -> list[tuple[Generator, Generator]]:
    """The 30 (t, s) pairs, t-norm generator first."""
    return [(make_t(), make_s()) for make_t in T_GENERATORS for make_s in S_GENERATORS]


def witness_rows() -> list[list[str]]:
    rows = []
    for t, s in generator_pairs():
        try:
            u, x = nilpotent_witness(t, s)
        except ValueError as exc:
            rows.append([t.name, s.name, "", "", "", "", type(exc).__name__])
            continue
        rows.append([t.name, s.name, *(float(v).hex() for v in (u.lo, u.hi, x.lo, x.hi)), ""])
    return rows


def main() -> None:
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(FIELDS)
    out.writerows(witness_rows())


if __name__ == "__main__":
    main()
