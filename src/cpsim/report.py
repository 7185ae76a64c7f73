"""Comparison tables and deterministic report emission.

Rows normalize power, latency, and energy-per-bit against a chosen baseline
platform, per model, with a geometric-mean summary row per platform.
Published figures for other accelerators ship as reference-only rows for
context; they never enter the summaries.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

from .engine import RunMetrics


@dataclass(frozen=True)
class LabeledRun:
    platform: str
    model: str
    metrics: RunMetrics


@dataclass(frozen=True)
class ComparisonRow:
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


@dataclass(frozen=True)
class ReferenceBaseline:
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
    return math.prod(values) ** (1.0 / len(values))


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
    ratios: dict[str, dict[str, list[float]]] = {p: {"p": [], "l": [], "e": []} for p in platforms}
    for run in runs:
        base = base_by_model.get(run.model)
        if base is None:
            raise ValueError(f"baseline {baseline!r} has no run for model {run.model!r}")
        m = run.metrics
        np = m.avg_power_w / base.avg_power_w
        nl = m.total_latency_s / base.total_latency_s
        ne = m.epb_j_per_bit / base.epb_j_per_bit
        ratios[run.platform]["p"].append(np)
        ratios[run.platform]["l"].append(nl)
        ratios[run.platform]["e"].append(ne)
        rows.append(ComparisonRow(run.platform, run.model, m.avg_power_w, m.total_latency_s,
                                  m.epb_j_per_bit, np, nl, ne))
    for platform in platforms:
        r = ratios[platform]
        runs_of = [x.metrics for x in runs if x.platform == platform]
        rows.append(ComparisonRow(
            platform, "geomean",
            _geomean([m.avg_power_w for m in runs_of]),
            _geomean([m.total_latency_s for m in runs_of]),
            _geomean([m.epb_j_per_bit for m in runs_of]),
            _geomean(r["p"]), _geomean(r["l"]), _geomean(r["e"]),
            summary=True,
        ))
    return rows


def reference_rows() -> list[ComparisonRow]:
    """Published context rows; normalized columns stay empty."""
    return [ComparisonRow(ref.name, "reported", ref.power_w, ref.latency_ms / 1e3,
                          ref.epb_nj_per_bit * 1e-9, None, None, None, reference_only=True)
            for ref in REFERENCE_BASELINES]


COLUMNS = ("platform", "model", "power_w", "latency_s", "epb_j_per_bit",
           "normalized_power", "normalized_latency", "normalized_epb", "reference_only")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _row_values(row: ComparisonRow) -> list:
    return [row.platform, row.model, row.power_w, row.latency_s, row.epb_j_per_bit,
            row.normalized_power, row.normalized_latency, row.normalized_epb,
            row.reference_only]


def render_report(rows: list[ComparisonRow], format: str) -> str:
    """Byte-stable text for the chosen format; numbers carry 6 significant
    digits in every format."""
    if format in ("csv", "tsv"):
        sep = "," if format == "csv" else "\t"
        lines = [sep.join(COLUMNS)]
        for row in rows:
            lines.append(sep.join(_fmt(v) for v in _row_values(row)))
        return "\n".join(lines) + "\n"
    if format == "json":
        payload = []
        for row in rows:
            entry = {}
            for key, value in zip(COLUMNS, _row_values(row)):
                if isinstance(value, float):
                    value = float(f"{value:.6g}")
                entry[key] = value
            payload.append(entry)
        return json.dumps({"rows": payload}, indent=2) + "\n"
    raise ValueError(f"unknown report format {format!r}")


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
