#!/usr/bin/env python3
"""Host-time benchmark of the cpsim simulator.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed 1 --seconds 10

Every workload is a closed loop: one caller in one process, no extra
threads, each op finishing before the next begins.

  cli_cold          each op is a fresh ``python -m cpsim compare --models all
                    --platforms siph,elec,mono --baseline mono`` process
  sweep_inproc      each op calls cpsim.cli.cli_main with the same compare
                    arguments in a warm process, writing to a file
  engine_generated  each op calls engine.simulate_model for every seeded
                    synthetic model (bench/gen.py) on siph, elec and mono
  engine_static     the same with resipi_enabled=False and overlap=False,
                    which bypasses the epoch controller

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
spends half the time untraced and half traced (bench/tracing.py) and reports
per-layer metrics for each cpsim module, plus the tracing overhead. Every op
is checked; an op fails if it raises, exits non-zero, breaks a result check
or produces output that differs from the workload's set-up output.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Run details, and the spans of a traced run,
are written under .benchrun/. The benchmark exits 2 without a result when
the checkout has no cpsim sources under src/.
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import io
import json
import math
import os
import platform as host
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace

import gen
import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".benchrun")

KINDS = ("siph", "elec", "mono")
COMPARE = ["compare", "--models", "all", "--platforms", ",".join(KINDS), "--baseline", "mono"]
SETUP_SAMPLES = 5     # set-ups per run; setup_s is their median
PROBES = 3            # bare-interpreter and import probes per traced run
CHILD_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "op_s_p50": "s", "op_s_tail": "s", "sim_layers_per_s": "1/s",
              "peak_rss_mib": "MiB"}
# Per-op values over the traced ops; see bench/predictions.json for what each should move.
PER_LAYER = {
    "cli.interp_s": "s", "cli.import_s": "s", "cli.self_s": "s",
    "config.default_config_s": "s", "config.default_config_calls": "count",
    "workload.load_model_s": "s", "workload.load_model_calls": "count",
    "workload.parse_us_per_layer": "us", "workload.layer_traffic_calls": "count",
    "platform.build_topology_s": "s", "platform.build_topology_calls": "count",
    "platform.chiplet_lookups": "count", "platform.gateway_ids_calls": "count",
    "mapper.map_model_s": "s", "mapper.map_model_calls": "count",
    "engine.simulate_model_s": "s", "engine.us_per_layer.siph": "us",
    "engine.us_per_layer.elec": "us", "engine.us_per_layer.mono": "us",
    "engine.layers_simulated": "count", "engine.reconfig_stalls": "count",
    "devices.required_laser_power_calls": "count", "devices.required_laser_power_s": "s",
    "devices.pcmc_chain_calls": "count", "devices.laser_calls_per_stall": "calls/stall",
    "report.comparison_table_s": "s", "report.emit_report_s": "s",
    "trace.overhead_ratio": "ratio", "trace.unaccounted_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def check_cpsim_location() -> None:
    import cpsim
    if os.path.dirname(os.path.abspath(cpsim.__file__)) != os.path.join(SRC, "cpsim"):
        raise BenchError(f"cpsim imported from {cpsim.__file__}, not from {SRC}")


# ---------------------------------------------------------------- checks


def check_metrics(m, label: str) -> list[str]:
    """Invariants every RunMetrics must satisfy."""
    problems = []
    top = {"total_latency_s": m.total_latency_s, "total_energy_j": m.total_energy_j,
           "avg_power_w": m.avg_power_w, "total_bits": m.total_bits,
           "epb_j_per_bit": m.epb_j_per_bit}
    for key, value in top.items():
        if not (math.isfinite(value) and value > 0):
            problems.append(f"{label}: {key} = {value!r} is not finite and > 0")
    parts = list(m.energy_breakdown.values())
    if not all(math.isfinite(v) and v >= 0 for v in parts):
        problems.append(f"{label}: energy breakdown has a negative or non-finite term")
    elif abs(sum(parts) - m.total_energy_j) > 1e-12 * abs(m.total_energy_j):
        problems.append(f"{label}: energy breakdown sums to {sum(parts)!r}, "
                        f"total is {m.total_energy_j!r}")
    if m.total_bits and m.epb_j_per_bit != m.total_energy_j / m.total_bits:
        problems.append(f"{label}: epb_j_per_bit != total_energy_j / total_bits")
    return problems


def check_compare(text: str, n_models: int, n_references: int) -> list[str]:
    """Row structure and values of a ``compare --format csv`` report."""
    rows = list(csv.DictReader(io.StringIO(text)))
    geomean = [r for r in rows if r["model"] == "geomean"]
    refs = [r for r in rows if r["reference_only"] == "true"]
    runs = [r for r in rows if r["reference_only"] == "false" and r["model"] != "geomean"]
    problems = []
    if (len(runs), len(geomean), len(refs), len(rows)) != (
            n_models * len(KINDS), len(KINDS), n_references,
            n_models * len(KINDS) + len(KINDS) + n_references):
        problems.append(f"compare emitted {len(runs)} run rows, {len(geomean)} geomean rows, "
                        f"{len(refs)} reference rows and {len(rows)} rows in all")
    for r in runs + geomean:
        for col in ("power_w", "latency_s", "epb_j_per_bit", "normalized_power",
                    "normalized_latency", "normalized_epb"):
            value = float(r[col])
            if not (math.isfinite(value) and value > 0):
                problems.append(f"{r['platform']}/{r['model']}: {col} = {r[col]!r}")
        if r["platform"] == "monolithic" and (
                r["normalized_power"], r["normalized_latency"], r["normalized_epb"]) != ("1",) * 3:
            problems.append(f"baseline row {r['model']} is not normalized to 1")
    return problems


def stalls_of(runs) -> int:
    """Photonic layers that stalled on a controller reconfiguration."""
    return sum(1 for m in runs for r in m.per_layer if r.overhead_s > 0)


# ------------------------------------------------------------- workloads


class Workload:
    traced = False

    def replay_setup(self) -> list[str]:
        """Repeat the traced part of set-up; problems found."""
        return []

    def adopt(self, tracer) -> list[str]:
        """Hand spans recorded outside this process to ``tracer``."""
        return []


class CompareWorkload(Workload):
    """Shared set-up checks of the two compare workloads: the report's rows
    must match the same sweep run through the library API."""

    def library_check(self, text: str) -> list[str]:
        from cpsim import config, engine, mapper, platform, report, workload
        self.reference_sha256 = hashlib.sha256(text.encode()).hexdigest()
        models = [workload.load_shipped_model(n) for n in workload.shipped_model_names()]
        self.layers_per_op = sum(len(m.layers) for m in models) * len(KINDS)
        problems = check_compare(text, len(models), len(report.REFERENCE_BASELINES))
        self.n_models, self.n_refs = len(models), len(report.REFERENCE_BASELINES)
        rows = {(r["platform"], r["model"]): r for r in csv.DictReader(io.StringIO(text))}
        cfg = config.default_config()
        siph_runs = []
        for kind in KINDS:
            variant = config.with_kind(cfg, kind)
            topology = platform.build_topology(variant)
            for model in models:
                m = engine.simulate_model(model, topology, mapper.map_model(model, topology),
                                          variant.devices, variant.options)
                label = f"{variant.platform.kind}/{model.name}"
                problems += check_metrics(m, label)
                row = rows.get((variant.platform.kind, model.name), {})
                expect = {"power_w": m.avg_power_w, "latency_s": m.total_latency_s,
                          "epb_j_per_bit": m.epb_j_per_bit}
                for col, value in expect.items():
                    if row.get(col) != f"{value:.6g}":
                        problems.append(f"{label}: report {col} {row.get(col)!r} differs "
                                        f"from the library's {value:.6g}")
                if kind == "siph":
                    siph_runs.append(m)
        self.facts = {"models": len(models), "layers_per_op": self.layers_per_op,
                      "reconfig_stalls": stalls_of(siph_runs)}
        return problems

    def check(self, result, digest: str) -> list[str]:
        code, text = result
        if code != 0:
            return [f"exit code {code}"]
        if text != self.reference:
            return ["output differs from the set-up output"]
        return check_compare(text, self.n_models, self.n_refs)

    def digest(self, result) -> str:
        return hashlib.sha256(result[1].encode()).hexdigest()


class CliCold(CompareWorkload):
    name = "cli_cold"
    in_process = False

    def __init__(self, seed: int) -> None:
        self.seed = seed          # the inputs are the shipped descriptors
        self.dump_path = os.path.join(WORK, f"child-{os.getpid()}.json")

    def _spawn(self) -> tuple:
        if self.traced:
            argv = [sys.executable, os.path.join(BENCH, "cli_child.py"), self.dump_path]
        else:
            argv = [sys.executable, "-m", "cpsim"]
        proc = subprocess.Popen(argv + COMPARE, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        return proc.returncode, out.decode()

    def setup(self) -> list[tuple[float, float]]:
        """The first, untimed processes; their median scaled wall time is
        setup_s. Returns (raw seconds, scale) per process."""
        samples, outputs = [], []
        for _ in range(SETUP_SAMPLES):
            (code, text), raw, scale = calibrated(self._spawn)
            samples.append((raw, scale))
            if code != 0:
                raise BenchError(f"set-up process exited {code}")
            outputs.append(text)
        if len(set(outputs)) != 1:
            raise BenchError("set-up processes disagree on the output")
        self.reference = outputs[0]
        return samples

    def prepare(self) -> list[str]:
        check_cpsim_location()
        return self.library_check(self.reference)

    def op(self):
        return self._spawn()

    def adopt(self, tracer) -> list[str]:
        with open(self.dump_path, encoding="utf-8") as f:
            dump = json.load(f)
        os.remove(self.dump_path)
        tracer.adopt(dump)
        return [] if dump["restored"] else ["child did not restore every binding"]


class SweepInproc(CompareWorkload):
    name = "sweep_inproc"
    in_process = True

    def __init__(self, seed: int) -> None:
        self.seed = seed          # the inputs are the shipped descriptors
        self.out_path = os.path.join(WORK, f"sweep-{os.getpid()}.csv")

    def setup(self) -> None:
        import cpsim.cli
        from cpsim import config
        config.default_config()
        self.cli = cpsim.cli

    def prepare(self) -> list[str]:
        check_cpsim_location()
        result = self.op()
        if result[0] != 0:
            raise BenchError(f"set-up sweep returned {result[0]}")
        self.reference = result[1]
        return self.library_check(self.reference)

    def op(self):
        code = self.cli.cli_main(COMPARE + ["--out", self.out_path])
        with open(self.out_path, encoding="utf-8", newline="") as f:
            return code, f.read()

    def replay_setup(self) -> list[str]:
        from cpsim import config
        config.default_config()
        return []


class EngineWorkload(Workload):
    in_process = True

    def __init__(self, seed: int, static: bool) -> None:
        self.seed, self.static = seed, static
        self.name = "engine_static" if static else "engine_generated"

    def setup(self) -> None:
        from cpsim import config, engine
        self.engine = engine
        cfg = config.default_config()
        self.texts = gen.generate(self.seed)
        self.models, self.calls = self._build(cfg)

    def _build(self, cfg):
        from cpsim import config, mapper, platform, workload
        models = [workload.load_model(text) for text in self.texts]
        calls = []
        for kind in KINDS:
            variant = config.with_kind(cfg, kind)
            topology = platform.build_topology(variant)
            options = variant.options
            if self.static:
                options = replace(options, resipi_enabled=False, overlap=False)
            calls += [(m, topology, mapper.map_model(m, topology), variant.devices, options)
                      for m in models]
        return models, calls

    def prepare(self) -> list[str]:
        check_cpsim_location()
        problems = []
        if gen.generate(self.seed) != self.texts:
            problems.append("generator is not deterministic for this seed")
        runs = self.op()
        self.reference = self.reference_sha256 = self.digest(runs)
        for (model, topology, *_), m in zip(self.calls, runs):
            problems += check_metrics(m, f"{topology.kind}/{model.name}")
        layers = sum(len(m.layers) for m in self.models)
        self.layers_per_op = layers * len(KINDS)
        self.facts = {"models": len(self.models), "layers": layers,
                      "layers_per_op": self.layers_per_op,
                      "reconfig_stalls": stalls_of(m for (_, t, *_), m in zip(self.calls, runs)
                                                   if t.kind == "siph_interposer"),
                      "descriptors_sha256": hashlib.sha256("".join(self.texts).encode()).hexdigest()}
        return problems

    def op(self):
        return [self.engine.simulate_model(*call) for call in self.calls]

    def digest(self, runs) -> str:
        return hashlib.sha256(repr(runs).encode()).hexdigest()

    def check(self, runs, digest: str) -> list[str]:
        problems = [] if digest == self.reference else [
            "output differs from the set-up output"]
        for (model, topology, *_), m in zip(self.calls, runs):
            problems += check_metrics(m, f"{topology.kind}/{model.name}")
        return problems

    def replay_setup(self) -> list[str]:
        """Parse, build and map once more, traced, for the set-up metrics."""
        from cpsim import config
        models, calls = self._build(config.default_config())
        same = models == self.models and [c[2] for c in calls] == [c[2] for c in self.calls]
        return [] if same else ["traced set-up built different models or plans"]


WORKLOADS = {
    "cli_cold": CliCold,
    "sweep_inproc": SweepInproc,
    "engine_generated": lambda seed: EngineWorkload(seed, static=False),
    "engine_static": lambda seed: EngineWorkload(seed, static=True),
}


# --------------------------------------------------------------- harness


def reference_loop() -> float:
    """Host seconds a fixed pure-Python loop takes right now.

    On a shared 2-vCPU host the CPU speed a process gets was seen to drift
    by up to 2x over tens of seconds, and op times drifted with it, while
    their ratio to this loop, measured next to them, stayed within a few
    percent (engine_static: 31-64 ms per op, a ratio within 4%). So every
    reported time is raw host seconds scaled by REFERENCE_LOOP_S / this
    loop's time: host seconds on a machine where the loop takes 10 ms. The
    raw figures are kept in the run's detail. The loop uses none of cpsim
    and allocates nothing the cyclic garbage collector tracks but one dict,
    so it never starts a collection over cpsim's heap, and no change to
    cpsim moves it."""
    t0 = time.perf_counter()
    table, acc = {}, 0.0
    for i in range(40000):
        k = i & 255
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += math.sqrt(table[k]) if i & 1 else table[k] / (k + 1)
    return time.perf_counter() - t0


REFERENCE_LOOP_S = 0.010


def calibrated(fn) -> tuple:
    """(fn's result, raw seconds, scale to reference speed)."""
    before = reference_loop()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    return result, raw, 2 * REFERENCE_LOOP_S / (before + reference_loop())


def run_ops(wl, seconds: float, tracer=None, first_op: int = 0) -> dict:
    """Closed loop for ``seconds``. Each op is bracketed by reference loops;
    the one after an op also serves as the one before the next."""
    raw, scales, failed, problems, last = [], {}, 0, [], None
    deadline = time.perf_counter() + seconds
    loop_before = reference_loop()
    while True:
        op_id = first_op + len(raw)
        if tracer:
            tracer.begin_op(op_id)
        t0 = time.perf_counter()
        try:
            result, bad = wl.op(), []
        except Exception as exc:   # an op that raises is a failed op, not a failed run
            result, bad = None, [f"op raised {type(exc).__name__}: {exc}"]
        t1 = time.perf_counter()
        if tracer:
            tracer.end_op()
        loop_after = reference_loop()
        raw.append(t1 - t0)
        scales[op_id] = 2 * REFERENCE_LOOP_S / (loop_before + loop_after)
        loop_before = loop_after
        if result is not None:
            try:
                if tracer:
                    bad += wl.adopt(tracer)
                last = wl.digest(result)
                bad += wl.check(result, last)
            except Exception as exc:   # malformed output fails the op
                bad.append(f"check raised {type(exc).__name__}: {exc}")
        if bad:
            failed += 1
            problems += [f"op {op_id}: {p}" for p in bad[:3]]
        if t1 >= deadline:
            times = [t * scales[first_op + i] for i, t in enumerate(raw)]
            return {"times": times, "raw": raw, "scales": scales, "failed": failed,
                    "problems": problems[:20], "digest": last}


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it."""
    s = sorted(times)
    if len(s) < 11:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def probe_times(code: str) -> list[float]:
    """Scaled wall times of ``python -c code`` processes."""
    samples = []
    for _ in range(PROBES):
        _, raw, scale = calibrated(lambda: subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True,
            timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL))
        samples.append(raw * scale)
    return samples


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Set up once more in a fresh process: (raw seconds, scale)."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                           "--seed", str(seed), "--probe-setup"], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    raw, loop_before, loop_after = map(float, proc.stdout.split()[-3:])
    return raw, 2 * REFERENCE_LOOP_S / (loop_before + loop_after)


def environment() -> dict:
    import yaml
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    lines = 0
    for path in glob.glob(os.path.join(SRC, "cpsim", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as f:
            lines += sum(1 for _ in f)
    return {"nproc": os.cpu_count(), "python": host.python_version(),
            "yaml_with_libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
            "cpu_model": cpu or host.processor(), "src_cpsim_lines": lines}


def measure(wl, seconds: float, trace: bool) -> tuple[dict, dict, dict]:
    """Returns (metrics, detail, counts of attempted and failed ops)."""
    if wl.in_process:
        _, raw, scale = calibrated(wl.setup)
        setup = [(raw, scale)]
        if not trace:
            setup += [setup_probe(wl.name, wl.seed) for _ in range(SETUP_SAMPLES - 1)]
    else:
        setup = wl.setup()
    problems = wl.prepare()
    detail = {"workload": wl.name, "seed": wl.seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(), "inputs": wl.facts,
              "setup_raw_s": [r for r, _ in setup], "output_sha256": wl.reference_sha256}

    untraced = run_ops(wl, seconds / 2 if trace else seconds)
    problems += untraced["problems"]
    times = untraced["times"]
    op_p50 = statistics.median(times)
    op_tail, pct = tail(times)
    detail.update(ops=len(times), op_s_tail_percentile=pct,
                  raw_op_s_p50=statistics.median(untraced["raw"]),
                  untraced_output_sha256=untraced["digest"])
    if not trace:
        rusage = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        metrics = {"setup_s": statistics.median(r * f for r, f in setup), "op_s_p50": op_p50,
                   "op_s_tail": op_tail,
                   "sim_layers_per_s": wl.layers_per_op * len(times) / sum(times),
                   "peak_rss_mib": resource.getrusage(rusage).ru_maxrss / 1024}
        detail["problems"] = problems
        return metrics, detail, {"attempted": len(times), "failed": untraced["failed"]}

    tracer = tracing.Tracer()
    tracer.install()
    wl.traced = True
    try:
        replayed, _, setup_scale = calibrated(wl.replay_setup)
        traced = run_ops(wl, seconds / 2, tracer, first_op=len(times))
    finally:
        restored = tracer.uninstall()
        wl.traced = False
    problems += replayed + traced["problems"]
    if not restored:
        problems.append("tracing did not restore every original binding")
    if traced["digest"] != untraced["digest"]:
        problems.append("traced output digest differs from the untraced one")
    scales = dict(traced["scales"], setup=setup_scale)
    metrics, trace_detail, trace_problems = per_layer(
        tracer, sorted(traced["scales"]), scales, op_p50, statistics.median(traced["times"]))
    problems += trace_problems
    spans_path = os.path.join(WORK, f"spans-{wl.name}-seed{wl.seed}.json")
    tracing.write_spans(tracer, spans_path)
    detail.update(trace_detail, traced_ops=len(traced["times"]),
                  traced_output_sha256=traced["digest"],
                  spans_file=os.path.relpath(spans_path, ROOT), problems=problems)
    return metrics, detail, {"attempted": len(times) + len(traced["times"]),
                             "failed": untraced["failed"] + traced["failed"]}


def per_layer(tracer, op_ids, scales, untraced_p50, traced_p50) -> tuple[dict, dict, list]:
    ops = tracing.analyse(tracer, op_ids, scales)
    problems = []
    names = sorted({name for op in ops for name in op["counts"]})
    for name in names:
        seen = {op["counts"].get(name, 0) for op in ops}
        if len(seen) > 1:
            problems.append(f"count {name} differs between traced ops: {sorted(seen)}")

    def calls(name):
        return ops[0]["counts"].get(name, 0)

    def incl_s(name):
        return statistics.median(op["incl"][name] for op in ops)

    def scaled(span):
        return (span[4] - span[3]) * scales[span[0]]

    traced_ops = set(op_ids)
    sims = [s for s in tracer.spans if s[2] == "engine.simulate_model" and s[0] in traced_ops]
    us_per_layer = {}
    for alias, kind in zip(KINDS, ("siph_interposer", "elec_interposer", "monolithic")):
        of_kind = [s for s in sims if s[7]["kind"] == kind]
        layers = sum(s[7]["layers"] for s in of_kind)
        us_per_layer[alias] = sum(map(scaled, of_kind)) / layers * 1e6 if layers else 0.0
    per_op_layers = {sum(s[7]["layers"] for s in sims if s[0] == op) for op in op_ids}
    per_op_stalls = {sum(s[7]["stalls"] for s in sims if s[0] == op) for op in op_ids}
    if len(per_op_layers) > 1 or len(per_op_stalls) > 1:
        problems.append("simulated layers or stalls differ between traced ops")
    stalls = min(per_op_stalls)
    loads = [s for s in tracer.spans if s[2] == "workload.load_model" and s[0] in scales]
    parsed = sum(s[7]["layers"] for s in loads)

    interp = statistics.median(probe_times("pass"))
    imported = statistics.median(probe_times("import cpsim.cli"))
    laser_calls = calls("devices.required_laser_power")
    metrics = {
        "cli.interp_s": interp,
        "cli.import_s": imported - interp,
        "cli.self_s": statistics.median(op["self"]["cli.cli_main"] for op in ops),
        "config.default_config_s": incl_s("config.default_config"),
        "config.default_config_calls": calls("config.default_config"),
        "workload.load_model_s": incl_s("workload.load_model"),
        "workload.load_model_calls": calls("workload.load_model"),
        "workload.parse_us_per_layer": sum(map(scaled, loads)) / parsed * 1e6 if parsed else 0.0,
        "workload.layer_traffic_calls": calls("workload.layer_traffic"),
        "platform.build_topology_s": incl_s("platform.build_topology"),
        "platform.build_topology_calls": calls("platform.build_topology"),
        "platform.chiplet_lookups": calls("platform.chiplet"),
        "platform.gateway_ids_calls": calls("platform.gateway_ids"),
        "mapper.map_model_s": incl_s("mapper.map_model"),
        "mapper.map_model_calls": calls("mapper.map_model"),
        "engine.simulate_model_s": incl_s("engine.simulate_model"),
        "engine.us_per_layer.siph": us_per_layer["siph"],
        "engine.us_per_layer.elec": us_per_layer["elec"],
        "engine.us_per_layer.mono": us_per_layer["mono"],
        "engine.layers_simulated": min(per_op_layers),
        "engine.reconfig_stalls": stalls,
        "devices.required_laser_power_calls": laser_calls,
        "devices.required_laser_power_s": incl_s("devices.required_laser_power"),
        "devices.pcmc_chain_calls": calls("devices.pcmc_chain"),
        "devices.laser_calls_per_stall": laser_calls / max(1, stalls),
        "report.comparison_table_s": incl_s("report.comparison_table"),
        "report.emit_report_s": incl_s("report.emit_report"),
        "trace.overhead_ratio": traced_p50 / untraced_p50,
        "trace.unaccounted_s": statistics.median(op["unaccounted"] for op in ops),
    }
    detail = {"untraced_op_s_p50": untraced_p50, "traced_op_s_p50": traced_p50,
              "self_time_per_op": tracing.module_breakdown(ops),
              "counts_per_op": {name: calls(name) for name in names}}
    return metrics, detail, problems


def run_one(args) -> int:
    os.makedirs(WORK, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed)
    if args.probe_setup:
        loop_before = reference_loop()
        t0 = time.perf_counter()
        wl.setup()
        raw = time.perf_counter() - t0
        print(raw, loop_before, reference_loop())
        return 0
    metrics, detail, ops = measure(wl, args.seconds, bool(args.trace))
    correct = not detail["problems"]
    units = PER_LAYER if args.trace else END_TO_END
    print(f"cpsim bench: workload={wl.name} seed={wl.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {units[name]}")
    print(f"  {'failed_ratio':36s} {ops['failed'] / ops['attempted']:.6g} "
          f"({ops['failed']} of {ops['attempted']} ops)")
    print(f"  op_s_tail is p{detail['op_s_tail_percentile']:.1f} of {detail['ops']} untraced ops")
    for problem in detail["problems"]:
        print(f"  problem: {problem}")
    detail["failed_ratio"] = ops["failed"] / ops["attempted"]
    with open(os.path.join(WORK, f"{wl.name}-seed{wl.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as f:
        json.dump(detail, f, indent=1)
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": ops["attempted"], "failed": ops["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True,
                              cwd=ROOT, timeout=args.seconds + 170)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 2
        print("\n".join(line for line in lines[:-1] if not line.startswith("detail ")))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "cpsim", "__init__.py")):
        print(f"error: no cpsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
