"""Spans around imcperf's public functions, for the benchmark's traced run.

Each wrapper is installed where its caller looks the name up (a module
global), records a span (name, start, end, parent) in memory, and is removed
again when the traced phase ends. Spans are written out once, after the run.
A span's self time is its duration minus the part of it that its children
cover. Nothing here changes what the wrapped functions return.
"""

from __future__ import annotations

import json
import threading
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

MAIN = "cli.main"

# (module, global name looked up by callers there, span name)
COMPONENT_FUNCTIONS = (
    "accumulator_cost", "adc_area", "adc_delay", "adc_energy", "adc_resolution",
    "adder_tree_cost", "ceil_log2", "cell_array_energy", "dac_energy",
    "multiplier_cost", "register_cost", "sram_array_area",
)
WRAPPED = (
    ("cli", "main", MAIN),
    ("cli", "load_network", "workload.load_network"),
    ("workload", "load_network", "workload.load_network"),
    ("cli", "macro_metrics", "macro.macro_metrics"),
    ("system", "macro_metrics", "macro.macro_metrics"),
    ("cli", "peak_system_metrics", "system.peak_system_metrics"),
    ("cli", "network_system_metrics", "system.network_system_metrics"),
    ("system", "evaluate_layer_mapping", "system.evaluate_layer_mapping"),
    ("system", "best_mapping", "mapper.best_mapping"),
    ("mapper", "enumerate_mappings", "mapper.enumerate_mappings"),
    ("mapper", "evaluate_mapping", "mapper.evaluate_mapping"),
    ("system", "resolve_layer_precisions", "macro.resolve_layer_precisions"),
    ("system", "per_cycle_energy", "macro.per_cycle_energy"),
    ("macro", "per_cycle_energy", "macro.per_cycle_energy"),
) + tuple(("macro", fn, f"components.{fn}") for fn in COMPONENT_FUNCTIONS)

B_CYCLE_WARNING = "does not divide b_i"


class Tracer:
    """In-memory span store plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("B")  # fewer than 256 span names
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._lock = threading.Lock()
        self._local = threading.local()
        self.root = -1  # the cli.main span in flight: parent of pool-thread spans
        self.counts: Counter[str] = Counter()
        self.macro_keys: set = set()
        # layer name -> (macro size, [best_mapping seconds], candidates)
        self.searches: dict[str, tuple[int, list[float], int]] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, span_name: str, fn, before=None, after=None):
        nid = self.name_id(span_name)
        is_main = span_name == MAIN

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            stack = self._stack()
            parent = stack[-1] if stack else self.root
            with self._lock:
                sid = len(self.start)
                self.name.append(nid)
                self.parent.append(parent)
                self.end.append(0.0)
                self.start.append(time.perf_counter())
            stack.append(sid)
            if is_main:
                self.root = sid
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = time.perf_counter()
                stack.pop()
                if is_main:
                    self.root = -1
            if after is not None:
                after(args, result, sid)
            return result

        return traced

    # counters, measured where the work happens
    def _on_enumerate(self, args, mappings, sid) -> None:
        self.counts["candidates"] += len(mappings)
        self.counts["distinct_shapes"] += len({(m.rows, m.k_u, m.ox_u) for m in mappings})
        self._local.candidates = len(mappings)

    def _on_best_mapping(self, args, result, sid) -> None:
        layer, system = args[0], args[1]
        size = system.macro.d_i
        seconds = self.end[sid] - self.start[sid]
        known = self.searches.get(layer.name)
        if known is None or size > known[0]:
            self.searches[layer.name] = (size, [seconds], self._local.candidates)
        elif size == known[0]:
            known[1].append(seconds)

    def _on_macro_metrics(self, args) -> None:
        self.macro_keys.add((args[0], args[1]))

    def _count_cost_objects(self, original):
        def counted(cost_self) -> None:
            self.counts["cost_objects"] += 1
            original(cost_self)
        return counted

    def install(self, modules: dict) -> Callable[[], None]:
        """Wrap every WRAPPED name; returns a function that restores the originals."""
        saved = []
        hooks = {
            "mapper.enumerate_mappings": (None, self._on_enumerate),
            "mapper.best_mapping": (None, self._on_best_mapping),
            "macro.macro_metrics": (self._on_macro_metrics, None),
        }
        for module_name, attr, span_name in WRAPPED:
            module = modules[module_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            before, after = hooks.get(span_name, (None, None))
            setattr(module, attr, self.wrap(span_name, original, before, after))
        cost = modules["components"].ComponentCost
        saved.append((cost, "__post_init__", cost.__post_init__))
        cost.__post_init__ = self._count_cost_objects(cost.__post_init__)

        def uninstall() -> None:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
        return uninstall

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total self seconds, total inclusive seconds)."""
        start, end, parent, name = self.start, self.end, self.parent, self.name
        main_id = self._ids.get(MAIN, -1)
        covered: dict[int, float] = {}  # open parents only: children come after them
        main_children: dict[int, list[int]] = {}
        out: dict[int, list] = {}
        for i in range(len(start) - 1, -1, -1):
            duration = end[i] - start[i]
            if name[i] == main_id:
                cover = _union(start, end, i, main_children.pop(i, []))
            else:
                cover = covered.pop(i, 0.0)
            entry = out.setdefault(name[i], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration - cover
            entry[2] += duration
            p = parent[i]
            if p < 0:
                continue
            if name[p] == main_id:
                # --jobs threads run these side by side: take the union
                main_children.setdefault(p, []).append(i)
            else:
                covered[p] = covered.get(p, 0.0) + duration
        return {self.names[key]: tuple(value) for key, value in out.items()}

    def write(self, path: Path) -> None:
        """Spans as four native-order binary columns after a one-line JSON header."""
        with open(path, "wb") as stream:
            header = {"names": self.names, "spans": len(self.start),
                      "columns": ["name:u8", "start:f64", "end:f64", "parent:i32"]}
            stream.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.start, self.end, self.parent):
                column.tofile(stream)


def _union(start, end, parent: int, children: list[int]) -> float:
    """Seconds of the parent's interval covered by at least one child."""
    total = 0.0
    lo = hi = None
    for i in sorted(children):  # span ids grow with start time
        s, e = max(start[i], start[parent]), min(end[i], end[parent])
        if hi is None or s > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    return total + (hi - lo if hi is not None else 0.0)


def per_layer_specs(bench_layers: list[str]) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, as BENCHMARK.json lists them."""
    specs = [
        ("mapper.candidates", "count", "lower"),
        ("mapper.distinct_shapes", "count", "lower"),
        ("mapper.useful_ratio", "ratio", "higher"),
        ("mapper.best_mapping.calls", "count", "lower"),
        ("mapper.best_mapping.self_s", "s", "lower"),
        ("mapper.evaluate_mapping.self_s", "s", "lower"),
        ("mapper.enumerate_mappings.self_s", "s", "lower"),
        ("mapper.us_per_candidate", "us", "lower"),
        ("system.evaluate_layer_mapping.calls", "count", "lower"),
        ("system.evaluate_layer_mapping.self_s", "s", "lower"),
        ("system.winner_reevals", "count", "lower"),
        ("system.peak_system_metrics.self_s", "s", "lower"),
        ("system.network_system_metrics.self_s", "s", "lower"),
        ("macro.macro_metrics.calls", "count", "lower"),
        ("macro.macro_metrics.self_s", "s", "lower"),
        ("macro.macro_metrics.redundancy", "ratio", "lower"),
        ("macro.per_cycle_energy.self_s", "s", "lower"),
        ("macro.resolve_layer_precisions.calls", "count", "lower"),
        ("macro.b_cycle_warnings", "count", "lower"),
        ("components.calls", "count", "lower"),
        ("components.self_s", "s", "lower"),
        ("components.cost_objects", "count", "lower"),
        ("workload.load_network.self_s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    for layer in bench_layers:
        specs.append((f"mapper.search_ms.{layer}", "ms", "lower"))
        specs.append((f"mapper.candidates.{layer}", "count", "lower"))
    return specs


def layer_metrics(tracer: Tracer, passes: int, overhead_ratio: float,
                  bench_layers: list[str]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, per pass of the workload's request set.

    Metrics of a layer the workload never reaches read 0.
    """
    spans = tracer.self_times()

    def calls(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[0] / passes

    def self_s(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1] / passes

    counts = {key: value / passes for key, value in tracer.counts.items()}
    candidates = counts.get("candidates", 0.0)
    best_inclusive = spans.get("mapper.best_mapping", (0, 0.0, 0.0))[2] / passes
    macro_calls = calls("macro.macro_metrics")
    components = [key for key in spans if key.startswith("components.")]
    values = {
        "mapper.candidates": candidates,
        "mapper.distinct_shapes": counts.get("distinct_shapes", 0.0),
        "mapper.useful_ratio": counts.get("distinct_shapes", 0.0) / candidates if candidates else 0.0,
        "mapper.best_mapping.calls": calls("mapper.best_mapping"),
        "mapper.best_mapping.self_s": self_s("mapper.best_mapping"),
        "mapper.evaluate_mapping.self_s": self_s("mapper.evaluate_mapping"),
        "mapper.enumerate_mappings.self_s": self_s("mapper.enumerate_mappings"),
        "mapper.us_per_candidate": best_inclusive / candidates * 1e6 if candidates else 0.0,
        "system.evaluate_layer_mapping.calls": calls("system.evaluate_layer_mapping"),
        "system.evaluate_layer_mapping.self_s": self_s("system.evaluate_layer_mapping"),
        "system.winner_reevals": calls("system.evaluate_layer_mapping") - candidates,
        "system.peak_system_metrics.self_s": self_s("system.peak_system_metrics"),
        "system.network_system_metrics.self_s": self_s("system.network_system_metrics"),
        "macro.macro_metrics.calls": macro_calls,
        "macro.macro_metrics.self_s": self_s("macro.macro_metrics"),
        "macro.macro_metrics.redundancy": (macro_calls / len(tracer.macro_keys)
                                           if tracer.macro_keys else 0.0),
        "macro.per_cycle_energy.self_s": self_s("macro.per_cycle_energy"),
        "macro.resolve_layer_precisions.calls": calls("macro.resolve_layer_precisions"),
        "macro.b_cycle_warnings": counts.get("b_cycle_warnings", 0.0),
        "components.calls": sum(calls(key) for key in components),
        "components.self_s": sum(self_s(key) for key in components),
        "components.cost_objects": counts.get("cost_objects", 0.0),
        "workload.load_network.self_s": self_s("workload.load_network"),
        "cli.self_s": self_s(MAIN),
        "trace.overhead_ratio": overhead_ratio,
    }
    for layer in bench_layers:
        size, seconds, count = tracer.searches.get(layer, (0, [], 0))
        values[f"mapper.search_ms.{layer}"] = sum(seconds) / len(seconds) * 1e3 if seconds else 0.0
        values[f"mapper.candidates.{layer}"] = float(count)
    units = {name: unit for name, unit, _ in per_layer_specs(bench_layers)}
    return {name: (values[name], units[name]) for name in units}
