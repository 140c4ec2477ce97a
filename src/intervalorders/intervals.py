"""Closed subintervals of [0,1] and the componentwise partial order on them.

The family L = {[a, b] : 0 <= a <= b <= 1} is the universe every ranking in
this package operates on.  Endpoints are IEEE doubles.
"""

from __future__ import annotations

import codecs
import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TextIO

import numpy as np

# Inputs this close to the [0,1] boundary are snapped onto it; anything
# further outside is rejected.  Tolerates parser round-off without admitting
# invalid intervals.
BOUNDARY_SLACK = 1e-15


class DomainError(ValueError):
    """Raised when a value falls outside the unit-interval universe."""


def _unit(value: float, label: str) -> float:
    v = float(value)
    if math.isnan(v):
        raise DomainError(f"{label} must be a real number in [0,1], got nan")
    if v < 0.0:
        if v >= -BOUNDARY_SLACK:
            return 0.0
        raise DomainError(f"{label}={v!r} lies below 0")
    if v > 1.0:
        if v <= 1.0 + BOUNDARY_SLACK:
            return 1.0
        raise DomainError(f"{label}={v!r} lies above 1")
    return v


@dataclass(frozen=True)
class Interval:
    """A closed subinterval [lo, hi] of [0,1]; degenerate (lo == hi) allowed."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = _unit(self.lo, "lo")
        hi = _unit(self.hi, "hi")
        if lo > hi:
            raise DomainError(f"interval endpoints out of order: {lo!r} > {hi!r}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi

    def as_tuple(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def __iter__(self):
        return iter((self.lo, self.hi))

    def __str__(self) -> str:
        return f"[{self.lo:g}, {self.hi:g}]"


class PartialComparison(Enum):
    """Outcome of the componentwise comparison of two intervals."""

    LESS_OR_EQUAL = "less_or_equal"
    GREATER_OR_EQUAL = "greater_or_equal"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def partial_compare(u: Interval, x: Interval) -> PartialComparison:
    """Componentwise order: u <= x iff u.lo <= x.lo and u.hi <= x.hi."""
    le = u.lo <= x.lo and u.hi <= x.hi
    ge = u.lo >= x.lo and u.hi >= x.hi
    if le and ge:
        return PartialComparison.EQUAL
    if le:
        return PartialComparison.LESS_OR_EQUAL
    if ge:
        return PartialComparison.GREATER_OR_EQUAL
    return PartialComparison.INCOMPARABLE


def interval_grid(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """All intervals with endpoints on the uniform grid {0, 1/R, ..., 1}.

    Returns parallel (lo, hi) arrays of length (R+1)(R+2)/2, in lexicographic
    order of (lo, hi).
    """
    resolution = int(resolution)
    if resolution < 1:
        raise ValueError("resolution must be a positive integer")
    i, j = np.triu_indices(resolution + 1)
    return i / resolution, j / resolution


# ---------------------------------------------------------------------------
# File formats, read as UTF-8 with an optional byte-order mark; a file that
# is not UTF-8 raises a `DataError` naming it.  CSV: one `lo,hi` row per
# interval; blank rows are skipped, fields after the second are ignored, and
# a first row that does not parse is a header.  JSON: an array of
# two-element arrays.  Readers return validated (lo, hi) float64 arrays, as
# `interval_grid` does, with endpoints snapped as `Interval` snaps them; the
# first entry in file order that is malformed or that `Interval` rejects
# raises a `DataError`.  `write_ranked_csv` writes `index,lo,hi` rows,
# `index` being the entry's position in the input.
#
# A CSV file is first parsed whole by numpy's C reader (`np.loadtxt`), which
# reads a number as `float` does.  Its arrays are kept only when every row
# parsed and every interval is valid: a file of plain `lo,hi` rows with LF or
# CRLF line ends.  Any other file goes to the row reader (`csv.reader` and
# one `float` per field), the only source of header handling and of the
# errors that name a row: one with a header, a quote, a CR line end, a
# blank-only row, a number `float` alone reads (`1_0`, non-ASCII digits), or
# a refused or invalid row.
# ---------------------------------------------------------------------------

# Rows joined into one string per write: bounded, so the output never
# exists as one string.
WRITE_BLOCK = 4096

# Characters per read while a CSV file is checked for the C reader: the
# input never exists as one string either.
READ_BLOCK = 1 << 16

# Characters that send a CSV file to the row reader without trying the C
# reader: the quote, since a quoted field may hold a comma or a line end,
# and U+001C..U+001F, which numpy strips from a number as white space and
# `float` does not.
ROW_READER_CHARS = '"\x1c\x1d\x1e\x1f'


class DataError(ValueError):
    """Raised when an interval data file cannot be parsed."""


def _read_text(fh: TextIO, path: str | Path, size: int = -1) -> str:
    try:
        return fh.read(size)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {_decode_error(path, exc)}") from exc


def _decode_error(path: str | Path, exc: UnicodeDecodeError) -> str:
    """The text of the file's first UTF-8 decoding error, its position
    counted in bytes from the start of the file, a byte-order mark
    included.  ``exc``, raised by a text reader, counts it from the start
    of the reader's chunk, so the file is decoded again, a block at a
    time; ``exc``'s own text is kept if that finds no error."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    fed = 0
    with open(path, "rb") as raw:
        while True:
            block = raw.read(READ_BLOCK)
            try:
                decoder.decode(block, final=not block)
            except UnicodeDecodeError as err:
                # err counts from the start of the bytes the decoder held back
                start = fed - len(decoder.getstate()[0]) + err.start
                span = (f"byte 0x{err.object[err.start]:02x} in position {start}"
                        if err.end == err.start + 1 else
                        f"bytes in position {start}-{start + err.end - err.start - 1}")
                return f"'{err.encoding}' codec can't decode {span}: {err.reason}"
            if not block:
                return str(exc)
            fed += len(block)


def _snapped(raw_lo: np.ndarray, raw_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Endpoints snapped by `Interval`'s rule, and the mask of the entries
    it rejects."""
    lo, hi = np.clip(raw_lo, 0.0, 1.0), np.clip(raw_hi, 0.0, 1.0)  # keeps -0.0
    outside = ~((raw_lo >= -BOUNDARY_SLACK) & (raw_lo <= 1.0 + BOUNDARY_SLACK)
                & (raw_hi >= -BOUNDARY_SLACK) & (raw_hi <= 1.0 + BOUNDARY_SLACK))
    return lo, hi, outside | (lo > hi)


def _checked(lo: list[float], hi: list[float], where) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays validated and snapped by `Interval`'s rule in one
    vectorised pass; the first entry it rejects raises `Interval`'s error as
    a `DataError` prefixed by ``where(k)``, k being the entry's position."""
    raw_lo, raw_hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    lo, hi, bad = _snapped(raw_lo, raw_hi)
    if bad.any():
        k = int(np.argmax(bad))
        try:
            Interval(float(raw_lo[k]), float(raw_hi[k]))
        except DomainError as exc:
            raise DataError(f"{where(k)}: {exc}") from exc
    return lo, hi


def _c_readable(fh: TextIO, path: str | Path) -> bool:
    """Whether numpy's C reader may try the open CSV file: it holds a
    non-blank row and none of ``ROW_READER_CHARS``.  Reads the whole file
    in blocks, so it is checked as UTF-8 first, then rewinds it."""
    plain, blank = True, True
    for block in iter(lambda: _read_text(fh, path, READ_BLOCK), ""):
        plain = plain and not any(c in block for c in ROW_READER_CHARS)
        blank = blank and not block.strip()
    fh.seek(0)
    return plain and not blank


def read_intervals_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        if _c_readable(fh, path):
            try:
                raw_lo, raw_hi = np.loadtxt(fh, delimiter=",", comments=None, usecols=(0, 1),
                                            ndmin=2, dtype=float, unpack=True)
            except ValueError:
                pass  # the row reader reads the file, or says where it fails
            else:
                lo, hi, bad = _snapped(raw_lo, raw_hi)
                if not bad.any():
                    return lo, hi
            fh.seek(0)
        return _read_csv_rows(path, fh)


def _read_csv_rows(path: str | Path, fh: TextIO) -> tuple[np.ndarray, np.ndarray]:
    lo: list[float] = []
    hi: list[float] = []
    rows: list[int] = []

    def where(k: int) -> str:
        return f"{path}: row {rows[k] + 1}"

    row_no = -1
    try:
        for row_no, row in enumerate(csv.reader(fh)):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                a, b = float(row[0]), float(row[1])
            except (ValueError, IndexError):
                if row_no == 0:
                    continue  # header line
                _checked(lo, hi, where)  # an earlier invalid row is reported first
                raise DataError(f"{path}: malformed interval row {row_no + 1}: {row!r}")
            lo.append(a)
            hi.append(b)
            rows.append(row_no)
    except csv.Error as exc:  # a field over csv's size limit, say, in the next row
        raise DataError(f"{path}: row {row_no + 2}: {exc}") from exc
    return _checked(lo, hi, where)


def read_intervals_json(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8-sig") as fh:
        text = _read_text(fh, path)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise DataError(f"{path}: expected a JSON array of [lo, hi] pairs")
    lo: list[float] = []
    hi: list[float] = []

    def where(k: int) -> str:
        return f"{path}: entry {k}"

    for k, entry in enumerate(raw):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            _checked(lo, hi, where)
            raise DataError(f"{path}: entry {k} is not a two-element array: {entry!r}")
        try:
            a, b = float(entry[0]), float(entry[1])
        except (TypeError, ValueError, OverflowError) as exc:  # an int too large for a float
            _checked(lo, hi, where)
            raise DataError(f"{path}: entry {k}: {exc}") from exc
        lo.append(a)
        hi.append(b)
    return _checked(lo, hi, where)


def load_intervals(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch on file suffix: .json -> JSON array, anything else -> CSV."""
    p = Path(path)
    if p.suffix.lower() == ".json":
        return read_intervals_json(p)
    return read_intervals_csv(p)


def write_ranked_csv(fh: TextIO, lo: np.ndarray, hi: np.ndarray, indices) -> None:
    """Write the `index,lo,hi` header, then for each input position i in
    `indices` the row `i,repr(lo[i]),repr(hi[i])`, to the open text stream."""
    fh.write("index,lo,hi\n")
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    indices = np.asarray(indices, dtype=np.int64)
    for start in range(0, indices.size, WRITE_BLOCK):
        block = indices[start:start + WRITE_BLOCK]
        fh.write("".join(f"{i},{a!r},{b!r}\n" for i, a, b in
                         zip(block.tolist(), lo[block].tolist(), hi[block].tolist())))
