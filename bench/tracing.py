"""Out-of-program tracing for the benchmark's traced runs.

cpsim itself carries no tracing. A Tracer replaces the public functions of
each cpsim module with timing or counting wrappers, at the binding its
caller looks them up in (``cpsim.cli.build_topology``, not only
``cpsim.platform.build_topology``), and puts the originals back afterwards.
Spans and counts stay in memory until the run ends.

A span records its op id, its id, name, start and end (perf_counter, which
is CLOCK_MONOTONIC on Linux and so comparable across processes), its parent,
the thread that ran it and a few attributes read from the call. ``compare``
runs its simulations on a thread pool: a span opened on a pool thread with
no open span of its own takes the main thread's innermost open span, the
enclosing ``cli_main``, as its parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

MODULES = ("cli", "config", "workload", "platform", "mapper", "engine", "devices", "report")


def _simulate_note(args, result) -> dict:
    model, topology = args[0], args[1]
    stalls = sum(1 for r in result.per_layer if r.overhead_s > 0)
    return {"kind": topology.kind, "layers": len(model.layers), "stalls": stalls}


def _load_note(args, result) -> dict:
    return {"layers": len(result.layers)}


# (module holding the binding, attribute, span name, attribute reader)
SPANS = (
    ("cpsim.cli", "cli_main", "cli.cli_main", None),
    ("cpsim.cli", "default_config", "config.default_config", None),
    ("cpsim.config", "default_config", "config.default_config", None),
    ("cpsim.engine", "default_config", "config.default_config", None),
    ("cpsim.platform", "default_config", "config.default_config", None),
    ("cpsim.workload", "load_model", "workload.load_model", _load_note),
    ("cpsim.cli", "build_topology", "platform.build_topology", None),
    ("cpsim.platform", "build_topology", "platform.build_topology", None),
    ("cpsim.engine", "build_topology", "platform.build_topology", None),
    ("cpsim.cli", "map_model", "mapper.map_model", None),
    ("cpsim.mapper", "map_model", "mapper.map_model", None),
    ("cpsim.engine", "map_model", "mapper.map_model", None),
    ("cpsim.engine", "simulate_model", "engine.simulate_model", _simulate_note),
    ("cpsim.engine", "required_laser_power", "devices.required_laser_power", None),
    ("cpsim.report", "comparison_table", "report.comparison_table", None),
    ("cpsim.report", "emit_report", "report.emit_report", None),
)

# Hot helpers are counted, not timed: a span each would cost more than the call.
COUNTS = (
    ("cpsim.engine", "layer_traffic", "workload.layer_traffic"),
    ("cpsim.workload", "layer_traffic", "workload.layer_traffic"),   # via model_total_bits
    ("cpsim.platform", "PlatformTopology.chiplet", "platform.chiplet"),
    ("cpsim.platform", "ChipletSpec.gateway_ids", "platform.gateway_ids"),
    ("cpsim.engine", "pcmc_chain_for_equal_split", "devices.pcmc_chain"),
)


def _owner(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (op, id, name, t0, t1, parent, thread, attrs)
        self.op = "setup"
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._counters: list[Counter] = []
        self._saved: list[tuple] = []

    # -------------------------------------------------------- per thread

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counter(self) -> Counter:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = Counter()
            self._counters.append(counter)
        return counter

    def _parent(self, stack: list):
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return self.root

    # ------------------------------------------------------------ wrappers

    def _timed(self, fn, name: str, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            op, sid = tracer.op, next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            # a call that raises leaves no span; the op it belongs to fails anyway
            tracer.spans.append((op, sid, name, t0, t1, parent, threading.get_ident(),
                                 note(args, result) if note else None))
            return result

        return traced

    def _counted(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer._counter()[(tracer.op, name)] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for module_name, attr, name, note in SPANS:
            owner, leaf = _owner(module_name, attr)
            self._replace(owner, leaf, self._timed(owner.__dict__[leaf], name, note))
        for module_name, attr, name in COUNTS:
            owner, leaf = _owner(module_name, attr)
            self._replace(owner, leaf, self._counted(owner.__dict__[leaf], name))

    def _replace(self, owner, leaf: str, wrapper) -> None:
        self._saved.append((owner, leaf, owner.__dict__[leaf]))
        setattr(owner, leaf, wrapper)

    def uninstall(self) -> bool:
        """Put every original binding back; True when each is the very
        object that was there before install."""
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        restored = all(owner.__dict__[leaf] is original for owner, leaf, original in self._saved)
        self._saved.clear()
        return restored

    # ------------------------------------------------------------------ ops

    def begin_op(self, op) -> None:
        self.op, self.root = op, next(self._ids)
        self._main_stack.append(self.root)
        self._op_t0 = time.perf_counter()

    def end_op(self) -> None:
        t1 = time.perf_counter()
        self._main_stack.pop()
        self.spans.append((self.op, self.root, "op", self._op_t0, t1, None,
                           threading.get_ident(), None))

    def adopt(self, dump: dict) -> None:
        """Merge spans and counts a child process recorded (see dump());
        its top-level spans become children of the current op."""
        remap = {span[1]: next(self._ids) for span in dump["spans"]}
        for _, sid, name, t0, t1, parent, thread, attrs in dump["spans"]:
            self.spans.append((self.op, remap[sid], name, t0, t1,
                               remap.get(parent, self.root), thread, attrs))
        counter = self._counter()
        for name, n in dump["counts"]:
            counter[(self.op, name)] += n

    def dump(self) -> dict:
        return {"spans": self.spans,
                "counts": sorted((name, n) for c in self._counters
                                 for (_, name), n in c.items())}

    def counts(self) -> dict:
        """(op, name) -> calls, for counted helpers and spans alike."""
        total: Counter = Counter()
        for counter in self._counters:
            total.update(counter)
        for span in self.spans:
            if span[2] != "op":
                total[(span[0], span[2])] += 1
        return dict(total)


# ------------------------------------------------------------------ analysis


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[tuple]) -> dict:
    """span id -> its duration minus the part its children cover."""
    children = defaultdict(list)
    for span in spans:
        children[span[5]].append((span[3], span[4]))
    return {s[1]: (s[4] - s[3]) - _covered(children[s[1]], s[3], s[4]) for s in spans}


def analyse(tracer: Tracer, op_ids: list, scales: dict) -> list[dict]:
    """Per-op aggregates over the given ops: per-name inclusive and self
    time, unaccounted time and counts. Each op's times are multiplied by
    its entry in ``scales``."""
    by_op = defaultdict(list)
    for span in tracer.spans:
        by_op[span[0]].append(span)
    counts = tracer.counts()

    per_op = []
    for op in op_ids:
        spans, scale = by_op[op], scales[op]
        own = self_times(spans)
        incl, self_by_name = Counter(), Counter()
        wall = unaccounted = 0.0
        for span in spans:
            if span[2] == "op":
                wall, unaccounted = (span[4] - span[3]) * scale, own[span[1]] * scale
                continue
            incl[span[2]] += (span[4] - span[3]) * scale
            self_by_name[span[2]] += own[span[1]] * scale
        per_op.append({"wall": wall, "unaccounted": unaccounted, "incl": incl,
                       "self": self_by_name,
                       "counts": {name: n for (o, name), n in counts.items() if o == op}})
    return per_op


def module_breakdown(per_op: list[dict]) -> dict:
    """Mean self seconds per op for each cpsim module, plus the op time no
    span covers; with a thread pool, busy time can exceed wall time, and
    the excess is reported as ``overlap_s``."""
    n = max(1, len(per_op))
    modules = {m: sum(op["self"][k] for op in per_op for k in op["self"]
                      if k.split(".")[0] == m) / n for m in MODULES}
    wall = sum(op["wall"] for op in per_op) / n
    unaccounted = sum(op["unaccounted"] for op in per_op) / n
    busy = sum(modules.values()) + unaccounted
    return {"wall_s": wall, "module_self_s": modules, "unaccounted_s": unaccounted,
            "overlap_s": busy - wall}


def write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"fields": ["op", "id", "name", "start", "end", "parent", "thread", "attrs"],
                   "spans": tracer.spans}, f)
