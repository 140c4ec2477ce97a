"""Command-line front end.

Subcommands: check-pair, rank, find-counterexample, coincide, battery.
Configuration is a single JSON document (--config); --resolution and
--tol override config values.  --tol is the residual tolerance of the final
witness check.  Exit codes: 0 success, 1 configuration error, 2
input/output error.  Identical config and input give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .admissibility import _oracle_witness, _rejected_witness_note, check_pair, oracle_search
from .aggregators import AggregationError, aggregator_from_config
from .battery import format_battery_table, run_battery
from .coincidence import orders_coincide
from .generators import GeneratorError, config_float
from .intervals import DataError, DomainError, load_intervals, write_ranked_csv
from .orders import OrderSpecError, order_from_config, rank_indices


class ConfigError(ValueError):
    """Invalid command-line or JSON configuration."""


@dataclass
class RunConfig:
    config: dict = field(default_factory=dict)
    input_path: str | None = None
    output_path: str | None = None
    resolution: int = 200
    tol: float = 1e-9
    cross_check: bool = False

    def validate(self) -> None:
        r = self.resolution
        if not isinstance(r, int) or r < 16:
            raise ConfigError(f"resolution must be an integer of at least 16, got {r!r}")
        if not 0 < self.tol < math.inf:
            raise ConfigError(f"tolerance must be positive and finite, got {self.tol}")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FileNotFoundError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return cfg


def _config_path(cfg: dict, key: str) -> str | None:
    """cfg[key] as a file name, None when absent or null.  Only a string
    names a file: open() takes an integer as a file descriptor."""
    value = cfg.get(key)
    if value is None or isinstance(value, str):
        return value
    raise ConfigError(f"{key!r} must be a file name, got {value!r}")


def _emit(payload: str, output_path: str | None) -> None:
    if output_path:
        Path(output_path).write_text(payload + "\n")
    else:
        sys.stdout.write(payload + "\n")


def _pair_from_config(cfg: dict):
    pair = cfg.get("pair")
    if not isinstance(pair, dict) or "a" not in pair or "b" not in pair:
        raise ConfigError("config needs a 'pair' object with 'a' and 'b' aggregator specs")
    return aggregator_from_config(pair["a"]), aggregator_from_config(pair["b"])


def _cmd_check_pair(rc: RunConfig) -> int:
    a, b = _pair_from_config(rc.config)
    verdict = check_pair(a, b, resolution=rc.resolution, tol=rc.tol)
    _emit(json.dumps(verdict.to_json_dict(), sort_keys=True, indent=2), rc.output_path)
    return 0


def _cmd_rank(rc: RunConfig) -> int:
    order_spec = rc.config.get("order")
    if order_spec is None:
        raise ConfigError("config needs an 'order' spec for ranking")
    order = order_from_config(order_spec)
    if rc.input_path is None:
        raise ConfigError("rank requires --input with an interval list")
    lo, hi = load_intervals(rc.input_path)
    idx = rank_indices(order, lo, hi)
    if rc.output_path:
        with open(rc.output_path, "w", newline="") as fh:
            write_ranked_csv(fh, lo, hi, idx)
    else:
        write_ranked_csv(sys.stdout, lo, hi, idx)
    return 0


def _cmd_find_counterexample(rc: RunConfig) -> int:
    a, b = _pair_from_config(rc.config)
    w = _oracle_witness(a, b, rc.resolution)
    if w is None:
        payload = {"witness": None, "note": f"none at resolution {rc.resolution}"}
    elif w.within(rc.tol):
        payload = {"witness": w.to_json_dict()}
    else:
        payload = {"witness": None, "note": _rejected_witness_note(w, rc.resolution, rc.tol)}
    _emit(json.dumps(payload, sort_keys=True, indent=2), rc.output_path)
    return 0


def _cmd_coincide(rc: RunConfig) -> int:
    specs = rc.config.get("orders")
    if not isinstance(specs, list) or len(specs) != 2:
        raise ConfigError("config needs an 'orders' array with exactly two order specs")
    order1 = order_from_config(specs[0])
    order2 = order_from_config(specs[1])
    dump_path = _config_path(rc.config, "disagreements_csv")
    grid: list = []
    rep = orders_coincide(order1, order2, resolution=rc.resolution,
                          collect_all=bool(dump_path), _cells=grid)
    if dump_path:
        (cells,) = grid
        with open(dump_path, "w") as fh:
            cells.write_csv(fh)
        if cells.rows.size < rep.disagreement_count:
            sys.stderr.write(f"note: {dump_path} holds the first {cells.rows.size} "
                             f"of {rep.disagreement_count} disagreements\n")
    _emit(json.dumps(rep.to_json_dict(), sort_keys=True, indent=2), rc.output_path)
    return 0


def _cmd_battery(rc: RunConfig) -> int:
    rows = run_battery(resolution=rc.resolution)
    table = format_battery_table(rows)
    if rc.cross_check:
        lines = [table, "", "oracle cross-check:"]
        for row in rows:
            found = oracle_search(row.case.a, row.case.b, resolution=rc.resolution)
            status = "collision" if found is not None else "none"
            lines.append(f"  {row.case.label}: {status}")
        table = "\n".join(lines)
    _emit(table, rc.output_path)
    disagreements = [r for r in rows if not r.agrees]
    if disagreements:
        for r in disagreements:
            sys.stderr.write(f"verdict mismatch: {r.case.label}\n")
        return 1
    return 0


_COMMANDS = {
    "check-pair": _cmd_check_pair,
    "rank": _cmd_rank,
    "find-counterexample": _cmd_find_counterexample,
    "coincide": _cmd_coincide,
    "battery": _cmd_battery,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="intervalorders",
        description="Total orders on unit subintervals from aggregation-function pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", metavar="PATH", default=None)
        p.add_argument("--input", metavar="PATH", default=None)
        p.add_argument("--output", metavar="PATH", default=None)
        p.add_argument("--resolution", metavar="N", type=int, default=None)
        p.add_argument("--tol", metavar="X", type=float, default=None)
        if name == "battery":
            p.add_argument("--cross-check", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        rc = RunConfig(
            config=cfg,
            input_path=args.input or _config_path(cfg, "input"),
            output_path=args.output or _config_path(cfg, "output"),
            cross_check=bool(getattr(args, "cross_check", False)),
        )
        # a flag overrides the config, which overrides RunConfig's default;
        # validate() checks the config's resolution, null included
        if args.resolution is not None or "resolution" in cfg:
            rc.resolution = cfg["resolution"] if args.resolution is None else args.resolution
        if args.tol is not None or "tol" in cfg:
            rc.tol = config_float(cfg, "tol", ConfigError) if args.tol is None else args.tol
        rc.validate()
        # every grid scan needs at least 50 points a side
        rc.resolution = max(50, rc.resolution)
        return _COMMANDS[args.command](rc)
    except (DataError, FileNotFoundError, OSError) as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2
    except (ConfigError, AggregationError, GeneratorError, OrderSpecError,
            DomainError, ValueError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
