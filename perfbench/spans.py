"""Spans around the package's public functions, recorded from outside it.

``install`` wraps every public function of each module in every module
namespace that imports it by name, ``AggregationFunction.values`` and
``__call__`` on the class, and the ``fn`` of each ``Composite`` that
``composite()`` returns.  Each call becomes a span (name, parent, start,
end, quantity) kept in flat arrays in memory; ``write_trace`` saves them
at the end and ``layer_metrics`` derives counts and times from them.  Times
are process CPU time, as in ``workload.py``.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
from array import array
from pathlib import Path
from time import process_time

import numpy as np

MODULES = ("intervals", "generators", "aggregators", "admissibility",
           "orders", "coincidence", "battery", "cli")

RULES = ("rule_k0_k1", "rule_quasi_endpoint_exclusion", "rule_quasi_equal_weights",
         "rule_quasi_unequal_weights", "rule_schur_pair", "rule_tnorm_tconorm")


def _size(value) -> float:
    return float(np.size(value))


# Work done by one call, recorded as the span's quantity.
QUANTITY = {
    "aggregators.values": lambda args, result: _size(args[1]),
    "generators.composite_eval": lambda args, result: _size(args[0]),
    "admissibility.make_witness": lambda args, result: float(result is not None),
    "admissibility.oracle_search": lambda args, result: float(result is not None),
    "intervals.interval_grid": lambda args, result: float(len(result[0])),
    "intervals.load_intervals": lambda args, result: float(len(result)),
    "orders.rank_indices": lambda args, result: float(len(args[1])),
    "orders.sign_matrix": lambda args, result: float(result.size),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self._stack = [-1]
        self.name_id = array("i")
        self.parent = array("i")
        self.outer = array("b")  # not nested inside a span of the same name
        self.start = array("d")
        self.end = array("d")
        self.qty = array("d")

    def wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        nid = self._ids[name]
        quantity = QUANTITY.get(name)
        depth, stack = self._depth, self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.outer.append(depth[nid] == 0)
            self.start.append(0.0)
            self.end.append(0.0)
            self.qty.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            t0 = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = process_time()
                depth[nid] -= 1
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if quantity is not None:
                self.qty[idx] = quantity(args, result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "qty": np.frombuffer(self.qty, dtype=np.float64).copy(),
        }


def install(tracer: Tracer) -> None:
    pkg = importlib.import_module("intervalorders")
    mods = {m: importlib.import_module(f"intervalorders.{m}") for m in MODULES}
    namespaces = [pkg, *mods.values()]
    for mname, mod in mods.items():
        for fname, fn in list(vars(mod).items()):
            if (fname.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            if (mname, fname) == ("generators", "composite"):
                wrapped = tracer.wrap("generators.composite", _counting_composite(tracer, fn))
            else:
                wrapped = tracer.wrap(f"{mname}.{fname}", fn)
            for ns in namespaces:
                if vars(ns).get(fname) is fn:
                    setattr(ns, fname, wrapped)
    cls = mods["aggregators"].AggregationFunction
    cls.values = tracer.wrap("aggregators.values", cls.values)
    cls.__call__ = tracer.wrap("aggregators.scalar", cls.__call__)


def _counting_composite(tracer: Tracer, composite):
    def build(*args, **kwargs):
        comp = composite(*args, **kwargs)
        return dataclasses.replace(comp, fn=tracer.wrap("generators.composite_eval", comp.fn))
    return build


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = [
        ("generators.composite.calls", "count"), ("generators.composite.s", "s"),
        ("generators.composite_eval.calls", "count"),
        ("generators.composite_eval.points", "count"),
        ("generators.collision_gap.calls", "count"),
        ("admissibility.check_pair.calls", "count"), ("admissibility.check_pair.self_s", "s"),
    ]
    for rule in RULES:
        out += [(f"admissibility.{rule}.calls", "count"), (f"admissibility.{rule}.s", "s")]
    out += [
        ("admissibility.make_witness.calls", "count"),
        ("admissibility.make_witness.accepted", "count"),
        ("admissibility.make_witness.accept_ratio", "ratio"),
        ("admissibility.oracle_search.calls", "count"), ("admissibility.oracle_search.s", "s"),
        ("admissibility.oracle_search.found", "count"),
        ("aggregators.values.calls", "count"), ("aggregators.values.points", "count"),
        ("aggregators.values.s", "s"),
        ("aggregators.scalar.calls", "count"), ("aggregators.scalar.s", "s"),
        ("intervals.interval_grid.points", "count"),
        ("orders.rank_indices.calls", "count"), ("orders.rank_indices.s", "s"),
        ("orders.compare.calls", "count"), ("orders.compare.s", "s"),
        ("orders.compare.per_item", "ratio"),
        ("intervals.load_intervals.s", "s"), ("intervals.load_intervals.items", "count"),
        ("intervals.write_ranked_csv.s", "s"),
        ("orders.order_from_config.s", "s"),
        ("cli.main.s", "s"),
        ("orders.sign_matrix.calls", "count"), ("orders.sign_matrix.cells", "count"),
        ("orders.sign_matrix.s", "s"),
        ("coincidence.orders_coincide.s", "s"),
        ("coincidence.midpoint_order_coincidence.s", "s"),
        ("battery.build_battery.s", "s"),
    ]
    return out


def layer_metrics(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, float]:
    """Derive every per-layer metric from recorded spans."""
    nid, parent, outer = spans["name_id"], spans["parent"], spans["outer"]
    dur = spans["end"] - spans["start"]
    qty = spans["qty"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child_time
    ids = {n: k for k, n in enumerate(names)}

    def mask(fn_name: str) -> np.ndarray:
        k = ids.get(fn_name)
        return np.zeros(dur.size, bool) if k is None else nid == k

    def under(fn_name: str, parent_name: str) -> np.ndarray:
        m = mask(fn_name) & has_parent
        m[m] = mask(parent_name)[parent[m]]
        return m

    values: dict[str, float] = {}
    for name, _unit in metric_names():
        fn_name, quantity = name.rsplit(".", 1)
        m = mask(fn_name)
        if quantity == "calls":
            v = float(np.count_nonzero(m))
        elif quantity == "s":
            v = float(dur[m & outer].sum())
        elif quantity == "self_s":
            v = float(self_time[m].sum())
        elif quantity == "accept_ratio":
            calls = np.count_nonzero(m)
            v = float(qty[m].sum() / calls) if calls else 0.0
        elif quantity == "per_item":
            items = qty[mask("orders.rank_indices")].sum()
            v = float(np.count_nonzero(under(fn_name, "orders.rank_indices")) / items) if items else 0.0
        else:  # points, cells, items, found, accepted
            v = float(qty[m].sum())
        values[name] = v
    return values


def write_trace(path: Path, names: list[str], spans: dict[str, np.ndarray], summary: dict) -> None:
    """Save the spans (``.npz``) and a summary with the derived metrics (``.json``)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path.with_suffix(".npz"), names=np.array(names), **spans)
    path.with_suffix(".json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
