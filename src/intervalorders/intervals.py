"""Closed subintervals of [0,1] and the componentwise partial order on them.

The family L = {[a, b] : 0 <= a <= b <= 1} is the universe every ranking in
this package operates on.  Endpoints are IEEE doubles.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

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
# File formats: CSV is one `lo,hi` pair per line (header optional); JSON is
# an array of two-element arrays.
# ---------------------------------------------------------------------------


class DataError(ValueError):
    """Raised when an interval data file cannot be parsed."""


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
    """Dispatch on file suffix: .json -> JSON array, anything else -> CSV."""
    p = Path(path)
    if p.suffix.lower() == ".json":
        return read_intervals_json(p)
    return read_intervals_csv(p)


def write_ranked_csv(path: str | Path, items: list[Interval], indices: list[int]) -> None:
    """Write `index,lo,hi` rows; `index` is the position in the input list."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "lo", "hi"])
        for idx, it in zip(indices, items):
            writer.writerow([idx, repr(it.lo), repr(it.hi)])
