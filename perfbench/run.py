"""Benchmark of the intervalorders package: verdicts, the oracle and orders.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 15 --trace 0

The workload's inputs are made from ``--seed`` and written under
``perfbench/_work``.  Each workload then runs in a fresh process
(``workload.py``) that imports the package from ``src``, times calls into
its public API and checks every output.  Without tracing, set-up is also
measured in a few processes that stop after set-up, and ``setup_s`` is
the median over all of them.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and the metrics:
``setup_s``, ``run_s`` and ``peak_rss_mb`` with ``--trace 0``, the
per-layer metrics of ``spans.py`` with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# Set-up is measured in this many set-up-only processes plus the measured one.
SETUP_SAMPLES = 4
# Everything must end within this many seconds of the start.
DEADLINE_S = 170.0

N_INTERVALS = 10_000
GRID = 100

PAIR_ORDER = {
    "kind": "pair",
    "a": {"family": "schur_pair", "f": {"kind": "power", "gamma": 2.0}},
    "b": {"family": "schur_pair", "f": {"kind": "power", "gamma": 0.5}},
}
PROJECTION_ORDER = {"kind": "alpha_beta", "alpha": 0.5, "beta": 1.0}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("verdicts", "oracle", "orders"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def write_inputs(workload: str, seed: int, workdir: Path) -> None:
    """Interval files and CLI configs for the orders workload; the other
    workloads take their seeded operation order in the measured process."""
    if workload != "orders":
        return
    rng = random.Random(seed)
    with open(workdir / "continuous.csv", "w") as fh:
        for _ in range(N_INTERVALS):
            lo, hi = sorted((rng.random(), rng.random()))
            fh.write(f"{lo!r},{hi!r}\n")
    with open(workdir / "quantised.csv", "w") as fh:
        for _ in range(N_INTERVALS):
            i, j = sorted((rng.randint(0, GRID), rng.randint(0, GRID)))
            fh.write(f"{i / GRID!r},{j / GRID!r}\n")
    (workdir / "pair.json").write_text(json.dumps({"order": PAIR_ORDER}))
    (workdir / "projection.json").write_text(json.dumps({"order": PROJECTION_ORDER}))
    (workdir / "coincide-config.json").write_text(json.dumps(
        {"orders": [PAIR_ORDER, {"kind": "alpha_beta", "alpha": 0.7, "beta": 1.0}]}))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, workdir: Path, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--src", str(SRC)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=child_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "intervalorders" / "__init__.py").is_file():
        sys.stderr.write(f"no package source at {SRC}; run from a source checkout\n")
        return 2
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        write_inputs(args.workload, args.seed, workdir)
        setups = []
        if not args.trace:
            setups = [run_child(args, workdir, deadline, setup_only=True)["setup_s"]
                      for _ in range(SETUP_SAMPLES)]
        result = run_child(args, workdir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        from spans import metric_names

        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in metric_names()}
    else:
        metrics = {
            "setup_s": {"value": median(setups + [result["setup_s"]]), "unit": "s"},
            "run_s": {"value": result["run_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
