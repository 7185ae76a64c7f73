"""Every text the CLI writes, and the comparison tables behind ``compare``.

Comparison rows normalize power, latency, and energy-per-bit against a
chosen baseline platform, per model, with a geometric-mean summary row per
platform. Published figures for other accelerators ship as reference-only
rows for context; they never enter the summaries. A run's per-layer record
is ``layer_rows``. csv/tsv go through one table writer, ``_table``; its cells
and every number of a comparison go through one 6-significant-digit format,
``_fmt``. A run's JSON and the topology JSON write each float at full
precision, as its shortest round-trip ``repr``.
"""

from __future__ import annotations

import json
import math
import sys
from functools import reduce
from operator import add, truediv
from typing import NamedTuple

from .engine import ENERGY_CATEGORIES, RunMetrics
from .platform import PlatformTopology


class LabeledRun(NamedTuple):
    platform: str
    model: str
    metrics: RunMetrics


class ComparisonRow(NamedTuple):
    platform: str
    model: str
    power_w: float
    latency_s: float
    epb_j_per_bit: float
    normalized_power: float | None
    normalized_latency: float | None
    normalized_epb: float | None
    reference_only: bool = False
    summary: bool = False


COLUMNS = ComparisonRow._fields[:-1]   # every field but ``summary``
# the RunMetrics fields of power_w, latency_s and epb_j_per_bit, each normalized
_NORMALIZED = ("avg_power_w", "total_latency_s", "epb_j_per_bit")


class ReferenceBaseline(NamedTuple):
    name: str
    power_w: float
    latency_ms: float
    epb_nj_per_bit: float


# Reported figures for published accelerator platforms, for context only.
REFERENCE_BASELINES = (
    ReferenceBaseline("CrossLight", 50.8, 8.0, 3.6),
    ReferenceBaseline("2.5D-CrossLight-Elec", 45.3, 41.4, 20.5),
    ReferenceBaseline("2.5D-CrossLight-SiPh", 89.7, 1.21, 1.3),
    ReferenceBaseline("Nvidia P100 GPU", 250.0, 13.1, 12.3),
    ReferenceBaseline("Intel 9282 CPU", 400.0, 86.5, 64.4),
    ReferenceBaseline("AMD 3970 CPU", 280.0, 141.3, 73.7),
    ReferenceBaseline("Edge TPU", 2.0, 2366.4, 17.6),
    ReferenceBaseline("NullHop", 2.3, 8049.3, 68.9),
    ReferenceBaseline("DeepCNN", 122.0, 619.01, 1959.4),
    ReferenceBaseline("HolyLight", 66.5, 86.4, 40.3),
)


def _geomean(values: list[float]) -> float:
    """exp of the mean log, free of a product's underflow and drift; a 0 gives 0.0."""
    return math.exp(math.fsum(map(math.log, values)) / len(values)) if all(values) else 0.0


def reject_duplicate_pairs(pairs: list[tuple[str, str]]) -> None:
    """Raise naming each (platform, model) pair that occurs twice: its second
    run would take over the model's baseline or count twice in the geomean."""
    duplicated = sorted({pair for pair in pairs if pairs.count(pair) > 1})
    if duplicated:
        raise ValueError(f"duplicate (platform, model) runs: {duplicated}")


def comparison_table(runs: list[LabeledRun], baseline: str) -> list[ComparisonRow]:
    """Normalized comparison rows plus one geometric-mean row per platform."""
    if not runs:
        raise ValueError("no runs to compare")
    reject_duplicate_pairs([(r.platform, r.model) for r in runs])
    platforms = list(dict.fromkeys(r.platform for r in runs))
    if baseline not in platforms:
        raise ValueError(f"baseline {baseline!r} not among runs ({', '.join(platforms)})")
    base_by_model = {r.model: r.metrics for r in runs if r.platform == baseline}

    rows: list[ComparisonRow] = []
    for run in runs:
        base = base_by_model.get(run.model)
        if base is None:
            raise ValueError(f"baseline {baseline!r} has no run for model {run.model!r}")
        values = [getattr(run.metrics, k) for k in _NORMALIZED]
        bases = [getattr(base, k) for k in _NORMALIZED]
        if 0 in bases:
            raise ValueError(f"baseline {baseline!r} has {_NORMALIZED[bases.index(0)]} 0 "
                             f"for model {run.model!r}: nothing to normalize by")
        rows.append(ComparisonRow(run.platform, run.model, *values, *map(truediv, values, bases)))
    summaries = []
    for platform in platforms:
        own = [row for row in rows if row.platform == platform]
        # each numeric column, power_w through normalized_epb, over the platform's runs
        summaries.append(ComparisonRow(platform, "geomean", *(
            _geomean([getattr(row, c) for row in own]) for c in COLUMNS[2:8]), summary=True))
    return rows + summaries


def reference_rows() -> list[ComparisonRow]:
    """Published context rows; normalized columns stay empty."""
    return [ComparisonRow(ref.name, "reported", ref.power_w, ref.latency_ms / 1e3,
                          ref.epb_nj_per_bit * 1e-9, None, None, None, reference_only=True)
            for ref in REFERENCE_BASELINES]


SEPARATORS = {"csv": ",", "tsv": "\t"}


def _fmt(value) -> str:
    """The table and comparison number format: 6 significant digits; None is an empty cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return f"{value:.6g}"


def _table(header, rows, format: str) -> str:
    """csv or tsv text: the header line, then one line per row of cells."""
    sep = SEPARATORS.get(format)
    if sep is None:
        raise ValueError(f"unknown report format {format!r}")
    return "".join(sep.join(map(_fmt, cells)) + "\n" for cells in [header, *rows])


def render_report(rows: list[ComparisonRow], format: str) -> str:
    """Byte-stable text for the chosen format; numbers carry 6 significant
    digits in every format."""
    if format == "json":
        payload = [{key: float(_fmt(value)) if isinstance(value, float) else value
                    for key, value in zip(COLUMNS, row)} for row in rows]
        return json.dumps({"rows": payload}, indent=2) + "\n"
    return _table(COLUMNS, [row[:-1] for row in rows], format)


def layer_rows(metrics: RunMetrics) -> list[dict]:
    """One record per layer of a run: its times, its bits and its energy by category."""
    return [{"layer": r.layer_index, "compute_s": r.compute_s, "read_s": r.read_s,
             "write_s": r.write_s, "overhead_s": r.overhead_s, "latency_s": r.layer_latency_s,
             "bits_moved": r.bits_moved, "energy_j": r.energy_j}
            for r in metrics.per_layer]


_LAYER_CELLS = ("compute_s", "read_s", "write_s", "overhead_s", "latency_s", "bits_moved")


def render_run(model: str, platform: str, metrics: RunMetrics, format: str) -> str:
    """One run as JSON, or as a table of layer rows and a total row."""
    if not metrics.per_layer:   # every model has a layer, so only a totals-only run has none
        raise ValueError(f"{model} on {platform} was priced without per-layer records")
    rows = layer_rows(metrics)
    if format == "json":
        doc = {"model": model, "platform": platform,
               "total_latency_s": metrics.total_latency_s,
               "total_energy_j": metrics.total_energy_j, "avg_power_w": metrics.avg_power_w,
               "total_bits": metrics.total_bits, "epb_j_per_bit": metrics.epb_j_per_bit,
               "energy_breakdown": metrics.energy_breakdown, "per_layer": rows}
        return json.dumps(doc, indent=2) + "\n"
    header = ["row", "layer", *_LAYER_CELLS, *(f"{c}_j" for c in ENERGY_CATEGORIES),
              "energy_j", "avg_power_w", "epb_j_per_bit"]
    cells = [["layer", str(r["layer"]), *(r[c] for c in _LAYER_CELLS),
              *(r["energy_j"][c] for c in ENERGY_CATEGORIES),
              reduce(add, r["energy_j"].values(), 0.0), None, None] for r in rows]
    cells.append(["total", None, None, None, None, None, metrics.total_latency_s,
                  metrics.total_bits,
                  *(metrics.energy_breakdown[c] for c in ENERGY_CATEGORIES),
                  metrics.total_energy_j, metrics.avg_power_w, metrics.epb_j_per_bit])
    return _table(header, cells, format)


def render_topology(topology: PlatformTopology) -> str:
    """The wired platform as JSON, for inspection."""
    doc = {
        "kind": topology.kind,
        "n_wavelengths": topology.platform.n_wavelengths,
        "link_rate_bps": topology.platform.link_rate_bps,
        "gateway_freq_hz": topology.platform.gateway_freq_hz,
        "interposer_side_mm": topology.platform.interposer_side_mm,
        "mesh_dims": list(topology.mesh_dims),
        "total_mrs": topology.total_mrs(),
        "chiplets": [
            {
                "id": c.id, "role": c.role,
                "mac_type": c.mac_type.name if c.mac_type else None,
                "vector_len": c.mac_type.vector_len if c.mac_type else None,
                "macs": c.macs, "gateways": c.gateways,
                "position_mm": list(c.position), "grid_cell": list(c.grid_cell),
            }
            for c in topology.chiplets
        ],
        "mrgs": [
            {"owner_gateway": m.owner_gateway, "filter_rows": m.filter_rows,
             "modulator_rows": m.modulator_rows, "mrs_per_row": m.mrs_per_row}
            for m in topology.mrgs
        ],
        "routes": [
            {"writer": r.writer_gateway, "protocol": r.protocol, "readers": len(r.readers),
             "length_mm": r.path.length_mm, "split_fanout": r.path.split_fanout}
            for r in topology.routes
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def write_text(text: str, destination: str) -> None:
    """Write ``text`` to a path, or to stdout when destination is '-'."""
    if destination == "-":
        sys.stdout.write(text)
        return
    with open(destination, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def emit_report(rows: list[ComparisonRow], format: str, destination: str) -> None:
    """Write the report to a path, or stdout when destination is '-'."""
    if not rows:
        raise ValueError("no rows to emit")
    write_text(render_report(rows, format), destination)
