"""Reference figures at sizes too long to repeat on every benchmark run.

Each is measured once, in its own process, from the root of a source
checkout:

    python3 perfbench/reference.py sweep     # oracle_search at R=200 on all 94 battery pairs
    python3 perfbench/reference.py coincide  # CLI coincide at R=200 (peak RSS)
    python3 perfbench/reference.py rank      # CLI rank of 10^5 seeded intervals, pair order

Prints one JSON line with the wall time, the peak RSS and whether the
outputs passed the benchmark's checks.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from run import PAIR_ORDER, WORK  # noqa: E402


def sweep() -> list[str]:
    import intervalorders as io

    errors = []
    for case in io.build_battery():
        found = io.oracle_search(case.a, case.b, resolution=200)
        pair = None if found is None else tuple(z.as_tuple() for z in found)
        errors += checks.oracle_errors(case.label, case.expected.value, pair)
    return errors


def coincide(tmp: Path) -> list[str]:
    from intervalorders.cli import main

    cfg, out = tmp / "coincide.json", tmp / "report.json"
    cfg.write_text(json.dumps(
        {"orders": [PAIR_ORDER, {"kind": "alpha_beta", "alpha": 0.7, "beta": 1.0}]}))
    if main(["coincide", "--config", str(cfg), "--resolution", "200", "--output", str(out)]):
        return ["coincide failed"]
    return checks.coincide_report_errors(json.loads(out.read_text()), 200,
                                         checks.kendall_discordant(200))


def rank(tmp: Path, n: int = 100_000, seed: int = 1) -> list[str]:
    from intervalorders.cli import main

    rng = random.Random(seed)
    data, cfg, out = tmp / "items.csv", tmp / "order.json", tmp / "ranked.csv"
    with open(data, "w") as fh:
        for _ in range(n):
            lo, hi = sorted((rng.random(), rng.random()))
            fh.write(f"{lo!r},{hi!r}\n")
    cfg.write_text(json.dumps({"order": PAIR_ORDER}))
    if main(["rank", "--config", str(cfg), "--input", str(data), "--output", str(out)]):
        return ["rank failed"]
    items = checks.read_pairs(data)
    return checks.ranked_csv_errors(out, items,
                                    checks.expected_ranking(checks.pair_order_keys(items, None)))


def main() -> int:
    what = sys.argv[1] if len(sys.argv) == 2 else ""
    if what not in ("sweep", "coincide", "rank"):
        sys.stderr.write(__doc__)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        t0 = time.perf_counter()
        errors = sweep() if what == "sweep" else globals()[what](Path(tmp))
        seconds = time.perf_counter() - t0
    print(json.dumps({
        "what": what, "seconds": seconds, "correct": not errors, "errors": errors[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
