"""Output checks that do not trust the program under test.

Every aggregation function of the verdict battery is re-written here in
closed form with the ``math`` module, so a witness returned by the program
is re-evaluated without going through any of its code.  Rankings are
recomputed from exact keys and coincidence counts from a Kendall distance
between two integer-keyed rankings.  Each check returns a list of error
strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math
import re

WITNESS_TOL = 1e-9
WITNESS_GAP = 1e-4

# The battery's split between the paper's two outcomes (94 cases).
BATTERY_ADMISSIBLE = 54
BATTERY_NOT_ADMISSIBLE = 40


# ---------------------------------------------------------------------------
# Closed forms of the battery's aggregation functions, A([a, b]) for a <= b
# ---------------------------------------------------------------------------


def root_power(g: float, w: float):
    def value(a: float, b: float) -> float:
        if g < 0 and (a == 0.0 or b == 0.0):
            return 0.0  # f(0) = +inf, and f^{-1}(+inf) = 0
        return ((1.0 - w) * a**g + w * b**g) ** (1.0 / g)
    return value


def exponential(r: float, w: float):
    return lambda a, b: math.log((1.0 - w) * math.exp(r * a) + w * math.exp(r * b)) / r


def geometric(w: float):
    return lambda a, b: 0.0 if a == 0.0 or b == 0.0 else a ** (1.0 - w) * b**w


def logit_mean(w: float):
    def value(a: float, b: float) -> float:
        num = 0.0 if a == 0.0 or b == 0.0 else a ** (1.0 - w) * b**w
        den = 0.0 if a == 1.0 or b == 1.0 else (1.0 - a) ** (1.0 - w) * (1.0 - b) ** w
        if num == 0.0 and den == 0.0:
            return 0.0  # logit(0) = -inf dominates logit(1) = +inf
        return num / (num + den)
    return value


def projection(w: float):
    return lambda a, b: (1.0 - w) * a + w * b


_NAMED = {
    "product t-norm": lambda a, b: a * b,
    "Lukasiewicz t-norm": lambda a, b: max(a + b - 1.0, 0.0),
    "probabilistic sum": lambda a, b: a + b - a * b,
    "bounded sum": lambda a, b: min(a + b, 1.0),
    "pair-mean(x^2)": lambda a, b: 0.5 * (a * a + b * b),
    "pair-mean(sqrt)": lambda a, b: 0.5 * (math.sqrt(a) + math.sqrt(b)),
    "pair-mean(id)": lambda a, b: 0.5 * (a + b),
}

_NUM = r"(-?[0-9.]+)"
_PATTERNS = [
    (re.compile(rf"root-power\({_NUM}, w={_NUM}\)"), root_power),
    (re.compile(rf"exponential\({_NUM}, w={_NUM}\)"), exponential),
    (re.compile(rf"geometric\(w={_NUM}\)"), geometric),
    (re.compile(rf"logit-mean\(w={_NUM}\)"), logit_mean),
    (re.compile(rf"projection\({_NUM}\)"), projection),
]


def closed_form(text: str):
    """The closed form named by one side of a battery label."""
    for name, fn in _NAMED.items():
        if text.startswith(name):
            return fn
    for pattern, family in _PATTERNS:
        m = pattern.match(text)
        if m:
            return family(*(float(v) for v in m.groups()))
    raise ValueError(f"no closed form for {text!r}")


def case_closed_forms(label: str):
    """(A, B) in closed form for a battery label ``"<A> vs <B>"``."""
    left, right = label.split(" vs ")
    return closed_form(left), closed_form(right)


# ---------------------------------------------------------------------------
# Witnesses and verdicts
# ---------------------------------------------------------------------------


def witness_errors(label: str, u: tuple[float, float], x: tuple[float, float]) -> list[str]:
    """A collision witness must give equal values under both closed forms
    (residuals <= 1e-9) on two intervals at least 1e-4 apart."""
    errors = []
    for name, (lo, hi) in (("u", u), ("x", x)):
        if not 0.0 <= lo <= hi <= 1.0:
            errors.append(f"{label}: witness {name}={[lo, hi]} is not a unit interval")
    if errors:
        return errors
    a_fn, b_fn = case_closed_forms(label)
    ra = abs(a_fn(*u) - a_fn(*x))
    rb = abs(b_fn(*u) - b_fn(*x))
    gap = max(abs(u[0] - x[0]), abs(u[1] - x[1]))
    if not (ra <= WITNESS_TOL and rb <= WITNESS_TOL):
        errors.append(f"{label}: witness residuals {ra:.3e}, {rb:.3e} exceed {WITNESS_TOL:g}")
    if not gap >= WITNESS_GAP:
        errors.append(f"{label}: witness endpoint gap {gap:.3e} below {WITNESS_GAP:g}")
    return errors


def battery_split_errors(expected: list[str]) -> list[str]:
    n_adm = expected.count("admissible")
    n_not = expected.count("not_admissible")
    if (n_adm, n_not, len(expected)) != (BATTERY_ADMISSIBLE, BATTERY_NOT_ADMISSIBLE,
                                        BATTERY_ADMISSIBLE + BATTERY_NOT_ADMISSIBLE):
        return [f"battery has {n_adm} admissible and {n_not} non-admissible cases "
                f"of {len(expected)}, expected {BATTERY_ADMISSIBLE} and "
                f"{BATTERY_NOT_ADMISSIBLE}"]
    return []


def verdict_errors(label: str, expected: str, outcomes: dict, witnesses: dict) -> list[str]:
    """Both orientations must reach the expected outcome (admissibility is
    symmetric in (A, B)), and every witness must pass the closed forms.

    ``outcomes`` and ``witnesses`` map each orientation ("ab", "ba") to the
    outcome string and to a ``(u, x)`` pair or None.
    """
    errors = []
    if outcomes["ab"] != outcomes["ba"]:
        errors.append(f"{label}: orientations disagree ({outcomes['ab']} vs {outcomes['ba']})")
    for side, outcome in outcomes.items():
        if outcome != expected:
            errors.append(f"{label} [{side}]: verdict {outcome}, expected {expected}")
    for side, w in witnesses.items():
        if w is not None:
            errors.extend(f"[{side}] {e}" for e in witness_errors(label, *w))
    return errors


def oracle_errors(label: str, expected: str, found) -> list[str]:
    """An admissible pair has no collision; a non-admissible one must yield
    a confirmed collision pair."""
    if expected == "admissible":
        return [] if found is None else [f"{label}: oracle collision {found} on an admissible pair"]
    if found is None:
        return [f"{label}: oracle found no collision on a non-admissible pair"]
    return witness_errors(label, *found)


# ---------------------------------------------------------------------------
# Rankings
# ---------------------------------------------------------------------------


def read_pairs(path) -> list[tuple[float, float]]:
    """``lo,hi`` rows of a benchmark input file."""
    with open(path, newline="") as fh:
        return [(float(lo), float(hi)) for lo, hi in csv.reader(fh)]


def grid_index(value: float, resolution: int) -> int:
    k = round(value * resolution)
    if k / resolution != value:
        raise ValueError(f"{value!r} is not on the 1/{resolution} grid")
    return k


def pair_order_keys(items, quantum: int | None):
    """Keys of the order generated by the pair means of x^2 and sqrt.

    On a 1/quantum grid the keys are exact: i^2 + j^2, then sqrt(i) +
    sqrt(j).  Otherwise they are the float stage values.
    """
    if quantum is None:
        return [(0.5 * (lo * lo + hi * hi), 0.5 * (math.sqrt(lo) + math.sqrt(hi)))
                for lo, hi in items]
    keys = []
    for lo, hi in items:
        i, j = grid_index(lo, quantum), grid_index(hi, quantum)
        keys.append((i * i + j * j, math.sqrt(i) + math.sqrt(j)))
    return keys


def projection_keys(items, quantum: int | None):
    """Keys of the (0.5, 1) projection order: midpoint, then upper endpoint
    (i + j, then j on a 1/quantum grid)."""
    if quantum is None:
        return [(0.5 * lo + 0.5 * hi, hi) for lo, hi in items]
    keys = []
    for lo, hi in items:
        i, j = grid_index(lo, quantum), grid_index(hi, quantum)
        keys.append((i + j, j))
    return keys


def expected_ranking(keys) -> list[int]:
    """Input positions sorted by key, the input position breaking ties."""
    return sorted(range(len(keys)), key=lambda k: (*keys[k], k))


def ranked_csv_errors(path, items, expected: list[int]) -> list[str]:
    """The ``index,lo,hi`` file must list ``expected`` with the input rows."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["index", "lo", "hi"]:
        return [f"{path}: missing the index,lo,hi header"]
    rows = rows[1:]
    if len(rows) != len(expected):
        return [f"{path}: {len(rows)} rows, expected {len(expected)}"]
    for pos, (row, want) in enumerate(zip(rows, expected)):
        idx = int(row[0])
        if idx != want:
            return [f"{path}: row {pos} holds input {idx}, expected input {want}"]
        if (float(row[1]), float(row[2])) != items[idx]:
            return [f"{path}: row {pos} endpoints {row[1:]} differ from input {idx}"]
    return []


# ---------------------------------------------------------------------------
# Coincidence
# ---------------------------------------------------------------------------


def count_inversions(seq: list[int]) -> int:
    """Pairs k < l with seq[k] > seq[l], by merge sort (Knight 1966)."""
    count = 0
    width = 1
    a = list(seq)
    n = len(a)
    while width < n:
        merged = []
        for start in range(0, n, 2 * width):
            left = a[start:start + width]
            right = a[start + width:start + 2 * width]
            i = j = 0
            while i < len(left) and j < len(right):
                if left[i] <= right[j]:
                    merged.append(left[i])
                    i += 1
                else:
                    merged.append(right[j])
                    count += len(left) - i
                    j += 1
            merged.extend(left[i:])
            merged.extend(right[j:])
        a = merged
        width *= 2
    return count


def coincide_keys(i: int, j: int):
    """Exact keys of the two compared orders on the grid interval [i/R, j/R]:
    the x^2/sqrt pair-mean order and the (0.7, 1) projection order."""
    return (i * i + j * j, math.sqrt(i) + math.sqrt(j)), (3 * i + 7 * j, j)


def kendall_discordant(resolution: int) -> int:
    """Discordant grid pairs of the two orders, as a Kendall distance."""
    grid = [(i, j) for i in range(resolution + 1) for j in range(i, resolution + 1)]
    first = sorted(range(len(grid)), key=lambda k: coincide_keys(*grid[k])[0])
    second = sorted(range(len(grid)), key=lambda k: coincide_keys(*grid[k])[1])
    pos2 = [0] * len(grid)
    for pos, k in enumerate(second):
        pos2[k] = pos
    return count_inversions([pos2[k] for k in first])


def _direction(a, b) -> str:
    return "less" if a < b else "greater" if a > b else "equal"


def k_alpha_crossover(u, x) -> float:
    """Weight alpha at which (1-alpha) lo + alpha hi is equal for u and x
    (nan when the two projections never cross or always agree)."""
    d_lo, d_hi = u[0] - x[0], u[1] - x[1]
    return d_lo / (d_lo - d_hi) if d_lo != d_hi else math.nan


def coincide_report_errors(report: dict, resolution: int, expected_count: int) -> list[str]:
    errors = []
    if report.get("coincide") is not False:
        errors.append("coincide: the two orders were reported to coincide")
    if report.get("disagreement_count") != expected_count:
        errors.append(f"coincide: {report.get('disagreement_count')} disagreements, "
                      f"Kendall distance is {expected_count}")
    w = report.get("witness")
    if not w:
        return errors + ["coincide: no witness"]
    try:
        u = tuple(grid_index(v, resolution) for v in w["u"])
        x = tuple(grid_index(v, resolution) for v in w["x"])
    except ValueError as exc:
        return errors + [f"coincide: witness off the grid: {exc}"]
    ku, kx = coincide_keys(*u), coincide_keys(*x)
    first, second = _direction(ku[0], kx[0]), _direction(ku[1], kx[1])
    if {first, second} != {"less", "greater"}:
        errors.append(f"coincide: witness {w['u']}, {w['x']} is not a strict disagreement")
    if (w.get("direction_in_order_1"), w.get("direction_in_order_2")) != (first, second):
        errors.append(f"coincide: witness directions {w.get('direction_in_order_1')}/"
                      f"{w.get('direction_in_order_2')}, exact keys give {first}/{second}")
    alpha = k_alpha_crossover(tuple(w["u"]), tuple(w["x"]))
    thresholds = report.get("alpha_thresholds") or []
    if len(thresholds) != 1 or not abs(thresholds[0] - alpha) <= 1e-12:
        errors.append(f"coincide: alpha thresholds {thresholds}, closed-form crossover {alpha!r}")
    return errors


def midpoint_errors(coincide: bool, certainty: str, disagreements: int) -> list[str]:
    """A strictly Schur-convex B makes (midpoint, B) coincide with the
    (0.5, 1) projection order, so the report must say so."""
    if coincide is True and certainty == "proved" and disagreements == 0:
        return []
    return [f"midpoint: coincide={coincide}, certainty={certainty}, "
            f"disagreements={disagreements}"]
