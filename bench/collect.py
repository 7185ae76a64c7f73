#!/usr/bin/env python3
"""Repeat the benchmark and summarise it.

Usage, from the repository root:

    python3 bench/collect.py --seeds 1-10 --seconds 20 --traced 2 --out bench/baseline.json

For every workload this runs bench/run.py once per seed with tracing off
and reports, for each end-to-end metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json. With ``--traced N`` it then makes N
traced runs on the first seed and checks that every count repeats exactly
between them and that their output digests equal the untraced one. With
``--against FILE`` it compares each median with the one in FILE, an earlier
output of this script, and flags a metric whose median is worse by more than
its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "run.py"),
                           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], capture_output=True, text=True, cwd=ROOT,
                          timeout=seconds + 170)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    detail = next(json.loads(line[len("detail "):]) for line in lines if line.startswith("detail "))
    return json.loads(lines[-1]), detail


def seeds_of(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = map(int, spec.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in spec.split(",")]


def summarise(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / statistics.median(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "values": values}


def compare(path: str, summary: dict, spec: dict) -> dict:
    """Median of this summary over the median in ``path``, per workload and
    end-to-end metric, with whether the change is within the metric's bound."""
    with open(path, encoding="utf-8") as f:
        earlier = json.load(f)
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {}
    for workload, entry in summary["workloads"].items():
        for name, s in entry["end_to_end"].items():
            ratio = s["median"] / earlier["workloads"][workload]["end_to_end"][name]["median"]
            worse = ratio - 1 if lower[name] else 1 - ratio
            result[f"{workload}.{name}"] = {"ratio": ratio, "within_bound": worse <= bounds[name]}
            print(f"{workload:17s} {name:17s} median / earlier {ratio:.4f}"
                  f"{'' if worse <= bounds[name] else '  <-- worse than bound'}", flush=True)
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--against", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seeds_of(args.seeds)

    summary = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        results = [run(workload, seed, args.seconds, 0) for seed in seeds]
        entry = {"why": next((w["why"] for w in spec["workloads"] if w["name"] == workload), ""),
                 "correct": all(r["correct"] for r, _ in results),
                 "attempted": [r["attempted"] for r, _ in results],
                 "failed": [r["failed"] for r, _ in results],
                 "inputs_by_seed": {seed: d["inputs"] for seed, (_, d) in zip(seeds, results)},
                 "output_sha256_by_seed": {seed: d["output_sha256"]
                                           for seed, (_, d) in zip(seeds, results)},
                 "end_to_end": {}}
        summary["environment"] = results[0][1]["environment"]
        for name in results[0][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r, _ in results]
            entry["end_to_end"][name] = dict(summarise(values, bounds.get(name)),
                                             unit=results[0][0]["metrics"][name]["unit"])
            s = entry["end_to_end"][name]
            flag = "" if s["bound"] is None or s["spread"] <= s["bound"] / 3 else "  <-- spread"
            print(f"{workload:17s} {name:17s} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f} bound {s['bound']}{flag}", flush=True)

        traced = [run(workload, seeds[0], args.seconds, 1) for _ in range(args.traced)]
        if traced:
            counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                      for r, _ in traced]
            digests = {d["traced_output_sha256"] for _, d in traced}
            entry["traced"] = {
                "seed": seeds[0],
                "correct": all(r["correct"] for r, _ in traced),
                "counts_repeat": all(c == counts[0] for c in counts),
                "digests_match_untraced": digests == {results[0][1]["output_sha256"]},
                "per_layer": traced[0][0]["metrics"],
                "self_time_per_op": traced[0][1]["self_time_per_op"],
            }
            print(f"{workload:17s} traced: {json.dumps({k: v for k, v in entry['traced'].items() if k in ('correct', 'counts_repeat', 'digests_match_untraced')})}",
                  flush=True)
        summary["workloads"][workload] = entry

    if args.against:
        summary["against"] = compare(args.against, summary, spec)
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
