"""Small-n references for differential tests of the interval file readers
and the ranked-CSV writer.

These are the readers and the writer the package used while it built one
validated ``Interval`` per row: each row is checked as it is read, and the
ranked rows are written one at a time with ``csv.writer``.  The package's
array readers must return the same endpoints, bit for bit, or raise the same
``DataError`` text.  One difference is intended: this CSV reader opens the
file without an encoding, so a UTF-8 byte-order mark spoils the first row.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from intervalorders.intervals import DataError, DomainError, Interval


def read_intervals_csv(path: str | Path) -> list[Interval]:
    items: list[Interval] = []
    with open(path, newline="") as fh:
        for row_no, row in enumerate(csv.reader(fh)):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                lo, hi = float(row[0]), float(row[1])
            except (ValueError, IndexError):
                if row_no == 0:
                    continue  # header line
                raise DataError(f"{path}: malformed interval row {row_no + 1}: {row!r}")
            try:
                items.append(Interval(lo, hi))
            except DomainError as exc:
                raise DataError(f"{path}: row {row_no + 1}: {exc}") from exc
    return items


def read_intervals_json(path: str | Path) -> list[Interval]:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise DataError(f"{path}: expected a JSON array of [lo, hi] pairs")
    items = []
    for k, entry in enumerate(raw):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise DataError(f"{path}: entry {k} is not a two-element array: {entry!r}")
        try:
            items.append(Interval(float(entry[0]), float(entry[1])))
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: entry {k}: {exc}") from exc
    return items


def load_intervals(path: str | Path) -> list[Interval]:
    p = Path(path)
    if p.suffix.lower() == ".json":
        return read_intervals_json(p)
    return read_intervals_csv(p)


def write_ranked_csv(path: str | Path, items: list[Interval], indices: list[int]) -> None:
    """Write `index,lo,hi` rows; `items` are already in ranked order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "lo", "hi"])
        for idx, it in zip(indices, items):
            writer.writerow([idx, repr(it.lo), repr(it.hi)])
