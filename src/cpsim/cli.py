"""Command-line front end.

Subcommands: ``validate`` a model descriptor, ``simulate`` one model on one
platform, ``compare`` a sweep of models across platforms, and ``topology``
to dump the wired platform. Exit codes: 0 success, 1 validation/run
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from . import engine, report
from .config import KIND_ALIASES, SimConfig, default_config, load_config, with_kind
from .devices import replace
from .mapper import map_model
from .platform import PlatformTopology, build_topology
from .workload import (DnnModelSpec, load_model_file, load_shipped_model, param_count,
                       shipped_model_names)

CONFIG_ENV_VAR = "CPS_CONFIG"


@cache   # the parser depends on no input, and parsing leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cpsim",
                                     description="Chiplet photonics accelerator simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load a model descriptor and check its parameter count")
    p.add_argument("descriptor", help="descriptor path or shipped model name")

    p = sub.add_parser("simulate", help="run one model on one platform")
    p.add_argument("--model", required=True, help="descriptor path or shipped model name")
    p.add_argument("--platform", required=True, choices=sorted(KIND_ALIASES))
    _add_common(p)
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.add_argument("--format", default="json", choices=("csv", "json", "tsv"))

    p = sub.add_parser("compare", help="sweep models x platforms and emit a comparison table")
    p.add_argument("--models", default="all", help="comma-separated names/paths, or 'all'")
    p.add_argument("--platforms", default="siph,elec,mono")
    p.add_argument("--baseline", default="mono", help="platform the ratios normalize against")
    _add_common(p)
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.add_argument("--format", default="csv", choices=("csv", "json", "tsv"))
    p.add_argument("--no-references", action="store_true",
                   help="omit the published reference rows")

    p = sub.add_parser("topology", help="dump the wired platform for inspection")
    p.add_argument("--platform", default="siph", choices=sorted(KIND_ALIASES))
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="-")
    return parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help=f"platform config (or ${CONFIG_ENV_VAR})")
    p.add_argument("--no-overlap", action="store_true",
                   help="sum compute/read/write instead of overlapping them")
    p.add_argument("--no-resipi", action="store_true",
                   help="keep every gateway active (no epoch reconfiguration)")
    p.add_argument("--epoch-us", type=float, default=None, help="controller epoch length")


def _load_config(path: str | None) -> SimConfig:
    path = path or os.environ.get(CONFIG_ENV_VAR)
    if path:
        return load_config(path)
    return default_config()


def _apply_flags(cfg: SimConfig, args) -> SimConfig:
    options = cfg.options
    if args.no_overlap:
        options = replace(options, overlap=False)
    if args.no_resipi:
        options = replace(options, resipi_enabled=False)
    if args.epoch_us is not None:
        options = replace(options, epoch_s=args.epoch_us * 1e-6)
    return replace(cfg, options=options)


def _resolve_model(name: str) -> DnnModelSpec:
    if os.path.sep in name or name.endswith(".desc") or os.path.isfile(name):
        return load_model_file(name)
    return load_shipped_model(name)


def _resolve_models(spec: str) -> list[DnnModelSpec]:
    if spec == "all":
        return [load_shipped_model(n) for n in shipped_model_names()]
    return [_resolve_model(n.strip()) for n in spec.split(",") if n.strip()]


def _run_one(model: DnnModelSpec, variant: SimConfig, topology: PlatformTopology,
             per_layer: bool = True) -> engine.RunMetrics:
    plan = map_model(model, topology)
    return engine.simulate_model(model, topology, plan, variant.devices, variant.options,
                                 per_layer=per_layer)


def _cmd_validate(args) -> int:
    model = _resolve_model(args.descriptor)
    print(f"{param_count(model)} parameters OK")
    return 0


def _cmd_simulate(args) -> int:
    cfg = _apply_flags(_load_config(args.config), args)
    model = _resolve_model(args.model)
    variant = with_kind(cfg, args.platform)
    metrics = _run_one(model, variant, build_topology(variant))
    report.write_text(report.render_run(model.name, KIND_ALIASES[args.platform], metrics,
                                        args.format), args.out)
    return 0


def _cmd_compare(args, parser: argparse.ArgumentParser) -> int:
    cfg = _apply_flags(_load_config(args.config), args)
    platforms = [p.strip() for p in args.platforms.split(",") if p.strip()]
    unknown = [p for p in platforms if p not in KIND_ALIASES]
    if unknown:
        parser.error(f"unknown platforms: {', '.join(unknown)}")
    if args.baseline not in platforms:
        parser.error(f"baseline {args.baseline!r} not among platforms {platforms}")
    models = _resolve_models(args.models)
    if not models:   # no platform fails the baseline check above
        parser.error("nothing to sweep: need at least one model and one platform")
    report.reject_duplicate_pairs([(KIND_ALIASES[platform], model.name)
                                   for model in models for platform in platforms])

    # one topology per platform, shared by every model
    variants = {platform: with_kind(cfg, platform) for platform in platforms}
    topologies = {platform: build_topology(v) for platform, v in variants.items()}
    # the table reads only each run's totals, so no run builds its layer records
    runs = [report.LabeledRun(KIND_ALIASES[platform], model.name,
                              _run_one(model, variants[platform], topologies[platform], False))
            for model in models for platform in platforms]

    rows = report.comparison_table(runs, KIND_ALIASES[args.baseline])
    if not args.no_references:
        rows += report.reference_rows()
    report.emit_report(rows, args.format, args.out)
    return 0


def _cmd_topology(args) -> int:
    cfg = _load_config(args.config)
    topology = build_topology(with_kind(cfg, args.platform))
    report.write_text(report.render_topology(topology), args.out)
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "compare":
            return _cmd_compare(args, parser)
        return _cmd_topology(args)   # the subparsers admit no fifth command
    except SystemExit as exc:   # --help, or a usage error from parse_args or parser.error
        return exc.code if isinstance(exc.code, int) else 2
    except (ValueError, OSError) as exc:   # every cpsim input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:   # finite inputs whose products leave the float range
        print(f"error: a config value is out of float range: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(cli_main())
