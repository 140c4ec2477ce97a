"""The src lines that no run reaches: tests, demos, the battery and the benchmark.

Every Python process started below, and every process those start, loads a
``sitecustomize`` module that installs a ``sys.settrace`` line tracer.  It
traces only frames in ``src/intervalorders/`` and writes the lines they ran
to a file when the process exits.  A line is executable when a code object
compiled from its module lists it in ``co_lines()``.  The traffic is

* the whole pytest suite, with ``--hypothesis-seed=0`` and no example
  database, so the examples drawn are the same on each run;
* the four demos;
* ``intervalorders battery --cross-check --resolution 200``;
* one ``--seconds 0`` round of each ``perfbench/run.py`` workload.

Print the executable lines that none of them reached, one
``path:line<TAB>source`` row each, with

    PYTHONPATH=src python3 tests/reach.py

or compare them with the committed list, which adds a reason to each row:

    PYTHONPATH=src python3 tests/reach.py --check tests/unreached_lines.txt

The check fails when a line is unreached but not listed, when a listed line
is reached, when a listed row's source text is not the text of that line,
or when a row gives no reason.  Any run that exits non-zero fails both.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "intervalorders"

SITECUSTOMIZE = '''\
import atexit, os, sys

_root = os.environ["REACH_PACKAGE"] + os.sep
_out = os.environ["REACH_OUT"]
_ours = {}
_hits = set()


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    ours = _ours.get(name)
    if ours is None:
        ours = _ours[name] = os.path.abspath(name).startswith(_root)
    if ours:
        _hits.add((name, frame.f_lineno))
        return _line
    return None


@atexit.register
def _dump():
    sys.settrace(None)
    with open(os.path.join(_out, f"{os.getpid()}.hits"), "w") as fh:
        fh.writelines(f"{os.path.abspath(name)}:{line}\\n" for name, line in _hits)


sys.settrace(_call)
'''

# The example database is off, so a run replays no example an earlier run saved.
PYTEST_PLUGIN = '''\
from hypothesis import settings

settings.register_profile("reach", database=None)
settings.load_profile("reach")
'''


def traffic() -> list[list[str]]:
    py = sys.executable
    runs = [[py, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "reach_profile",
             "--hypothesis-seed=0"]]
    runs += [[py, str(demo)] for demo in sorted((ROOT / "demos").glob("*.py"))]
    runs.append([py, "-m", "intervalorders.cli", "battery", "--cross-check", "--resolution", "200"])
    runs += [[py, "perfbench/run.py", "--workload", w, "--seed", "1", "--seconds", "0", "--trace", "0"]
             for w in ("verdicts", "oracle", "orders")]
    return runs


def executable_lines(path: Path) -> set[int]:
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def reached_lines() -> set[tuple[str, int]]:
    """(module path, line) pairs that some traced process ran."""
    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "hits")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
        (site / "reach_profile.py").write_text(PYTEST_PLUGIN)
        env = dict(os.environ, REACH_PACKAGE=str(PACKAGE), REACH_OUT=str(out),
                   PYTHONPATH=os.pathsep.join([str(site), str(ROOT / "src")]))
        for cmd in traffic():
            run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
            if run.returncode != 0:
                sys.exit(f"exit {run.returncode}: {' '.join(cmd)}")
        hits = set()
        for dump in out.iterdir():
            for row in dump.read_text().splitlines():
                name, _, line = row.rpartition(":")
                hits.add((name, int(line)))
    return hits


def unreached_rows() -> list[str]:
    hits = reached_lines()
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        rel = path.relative_to(ROOT).as_posix()
        for line in sorted(executable_lines(path)):
            if (str(path), line) not in hits:
                rows.append(f"{rel}:{line}\t{text[line - 1].strip()}")
    return rows


def check(rows: list[str], listed_file: Path) -> int:
    traced = dict(row.split("\t", 1) for row in rows)
    listed, faults = {}, []
    for row in listed_file.read_text().splitlines():
        if not row or row.startswith("#"):
            continue
        where, source, reason = (row.split("\t") + ["", ""])[:3]
        listed[where] = source
        if not reason.strip():
            faults.append(f"{where}: no reason given")
    for where in sorted(traced.keys() - listed.keys()):
        faults.append(f"{where}: unreached, not listed\t{traced[where]}")
    for where in sorted(listed.keys() - traced.keys()):
        faults.append(f"{where}: listed, but reached or not executable")
    for where in sorted(listed.keys() & traced.keys()):
        if listed[where] != traced[where]:
            faults.append(f"{where}: listed as {listed[where]!r}, the file has {traced[where]!r}")
    for fault in faults:
        print(fault, file=sys.stderr)
    return 1 if faults else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--check", type=Path, metavar="LIST",
                   help="compare the unreached lines with this list instead of printing them")
    args = p.parse_args(argv)
    rows = unreached_rows()
    if args.check:
        return check(rows, args.check)
    for row in rows:
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
