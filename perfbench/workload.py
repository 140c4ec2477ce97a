"""One benchmark process: set up, run whole rounds of one workload, check
every output.

Started by ``run.py`` with the package on ``PYTHONPATH``.  Set-up covers
interpreter start, the package import (numpy and scipy) and building the
battery.  With ``--setup-only`` the process stops there.  Otherwise it runs
rounds of the workload's fixed operations until ``--seconds`` have passed
(exactly one round when traced) and prints one JSON line with its figures.

Times are the CPU time of this process (``time.process_time``), not wall
time: every workload is single-threaded and CPU-bound, so the two agree on
an idle machine, while on a shared virtual machine the CPU time the host
steals from the guest lengthens wall time far more than CPU time.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from typing import Callable, NamedTuple

import checks

ORACLE_RESOLUTION = 100
COINCIDE_RESOLUTION = 140
MIDPOINT_RESOLUTION = 100


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=("verdicts", "oracle", "orders"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--src", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


class Op(NamedTuple):
    """One timed call into the package and the check of what it returned."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]


def verdict_ops(io, cases, seed: int) -> list[Op]:
    """check_pair on every battery case, in both orientations, in seeded order."""
    results: dict[str, dict] = {}

    def call(case, side):
        a, b = (case.a, case.b) if side == "ab" else (case.b, case.a)
        return io.check_pair(a, b)

    def check(case, side, verdict):
        rec = results.setdefault(case.label, {"outcomes": {}, "witnesses": {}})
        rec["outcomes"][side] = verdict.outcome.value
        w = verdict.witness
        rec["witnesses"][side] = None if w is None else (w.u.as_tuple(), w.x.as_tuple())
        if len(rec["outcomes"]) < 2:
            return []
        del results[case.label]
        return checks.verdict_errors(case.label, case.expected.value,
                                     rec["outcomes"], rec["witnesses"])

    ops = [
        Op(f"check_pair {side} {case.label}",
           lambda case=case, side=side: call(case, side),
           lambda out, case=case, side=side: check(case, side, out))
        for case in cases for side in ("ab", "ba")
    ]
    random.Random(seed).shuffle(ops)
    return ops


def oracle_ops(io, cases, seed: int) -> list[Op]:
    """oracle_search at one resolution on every battery pair, in seeded order."""

    def check(case, found):
        pair = None if found is None else tuple(z.as_tuple() for z in found)
        return checks.oracle_errors(case.label, case.expected.value, pair)

    ops = [
        Op(f"oracle_search {case.label}",
           lambda case=case: io.oracle_search(case.a, case.b, resolution=ORACLE_RESOLUTION),
           lambda out, case=case: check(case, out))
        for case in cases
    ]
    random.Random(seed).shuffle(ops)
    return ops


def order_ops(io, cases, workdir: Path) -> list[Op]:
    """CLI rank of both input files under both orders, CLI coincide, and the
    midpoint coincidence of the strictly Schur-convex x^2 pair mean."""
    from intervalorders import cli

    square = next(c.a for c in cases if c.label == "pair-mean(x^2) vs pair-mean(sqrt)")
    key_fns = {"pair": checks.pair_order_keys, "projection": checks.projection_keys}
    ops = []
    for name, quantum in (("continuous", None), ("quantised", 100)):
        path = workdir / f"{name}.csv"
        for order, key_fn in key_fns.items():
            out = workdir / f"ranked-{name}-{order}.csv"
            argv = ["rank", "--config", str(workdir / f"{order}.json"),
                    "--input", str(path), "--output", str(out)]
            ops.append(Op(
                f"rank {name} {order}",
                lambda argv=argv, out=out: _cli(cli, argv, out),
                lambda out, path=path, key_fn=key_fn, quantum=quantum:
                    _rank_errors(out, path, key_fn, quantum),
            ))

    report = workdir / "coincide.json"
    argv = ["coincide", "--config", str(workdir / "coincide-config.json"),
            "--resolution", str(COINCIDE_RESOLUTION), "--output", str(report)]
    ops.append(Op(
        "coincide",
        lambda: _cli(cli, argv, report),
        lambda out: checks.coincide_report_errors(
            json.loads(out.read_text()), COINCIDE_RESOLUTION,
            checks.kendall_discordant(COINCIDE_RESOLUTION)),
    ))
    ops.append(Op(
        "midpoint_order_coincidence",
        lambda: io.midpoint_order_coincidence(square, resolution=MIDPOINT_RESOLUTION),
        lambda rep: checks.midpoint_errors(rep.coincide, rep.certainty, rep.disagreement_count),
    ))
    return ops


def _rank_errors(out: Path, path: Path, key_fn, quantum) -> list[str]:
    items = checks.read_pairs(path)
    return checks.ranked_csv_errors(out, items, checks.expected_ranking(key_fn(items, quantum)))


def _cli(cli, argv: list[str], out: Path) -> Path:
    out.unlink(missing_ok=True)
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"intervalorders {argv[0]} exited with {code}")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    import intervalorders as io

    if not Path(io.__file__).resolve().is_relative_to(args.src.resolve()):
        sys.stderr.write(f"imported intervalorders from {io.__file__}, not {args.src}\n")
        return 2
    cases = io.build_battery()
    if args.workload == "verdicts":
        ops = verdict_ops(io, cases, args.seed)
    elif args.workload == "oracle":
        ops = oracle_ops(io, cases, args.seed)
    else:
        ops = order_ops(io, cases, args.workdir)
    setup_s = time.process_time()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    errors = checks.battery_split_errors([c.expected.value for c in cases])
    attempted = failed = 0
    round_times = []
    started = time.monotonic()
    while True:
        elapsed = 0.0
        for op in ops:
            attempted += 1
            t0 = time.process_time()
            try:
                out = op.call()
            except Exception:  # a failed operation is counted, not fatal
                failed += 1
                sys.stderr.write(f"operation failed: {op.name}\n{traceback.format_exc()}")
                continue
            finally:
                elapsed += time.process_time() - t0
            try:
                errors.extend(op.check(out))
            except Exception as exc:  # an unreadable output fails its check
                errors.append(f"{op.name}: output could not be checked: {exc!r}")
        round_times.append(elapsed)
        if tracer is not None or time.monotonic() - started >= args.seconds:
            break

    for e in errors[:20]:
        sys.stderr.write(f"check failed: {e}\n")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "run_s": median(round_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        recorded = tracer.arrays()
        result["layers"] = spans.layer_metrics(tracer.names, recorded)
        spans.write_trace(args.workdir.parent / f"trace-{args.workload}", tracer.names, recorded, {
            "workload": args.workload, "seed": args.seed, "run_s": result["run_s"],
            "spans": int(recorded["start"].size), "metrics": result["layers"],
        })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
