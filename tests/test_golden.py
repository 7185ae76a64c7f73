"""Byte-for-byte golden outputs of the CLI.

Each case is a ``cpsim`` argv; ``tests/golden/<name>`` holds the bytes that
argv writes with ``--out tests/golden/<name>``. The flag cases run resnet50,
where each flag changes the output, so each one pins its own branch of the
engine's layer loop. A golden changes only when the model changes on
purpose, and that change lists the deltas in CHANGES.md.
"""

from pathlib import Path

import pytest
import yaml

from cpsim.cli import cli_main

GOLDEN = Path(__file__).parent / "golden"
MODELS = ("lenet5", "resnet50", "densenet121", "vgg16", "mobilenetv2")
PLATFORMS = ("siph", "elec", "mono")
TRAILING = "{trailing}"   # replaced by a default config with demand_mode: trailing

CASES = {
    "compare_all.csv": ["compare", "--models", "all", "--format", "csv"],
    "compare_all.json": ["compare", "--models", "all", "--format", "json"],
    **{f"simulate_{m}_{p}.json": ["simulate", "--model", m, "--platform", p,
                                  "--format", "json"]
       for m in MODELS for p in PLATFORMS},
    "simulate_resnet50_siph_no_overlap.json":
        ["simulate", "--model", "resnet50", "--platform", "siph", "--no-overlap"],
    "simulate_resnet50_siph_no_resipi.json":
        ["simulate", "--model", "resnet50", "--platform", "siph", "--no-resipi"],
    "simulate_resnet50_siph_trailing.json":
        ["simulate", "--model", "resnet50", "--platform", "siph", "--config", TRAILING],
    "simulate_resnet50_elec_no_overlap.json":
        ["simulate", "--model", "resnet50", "--platform", "elec", "--no-overlap"],
    "simulate_resnet50_mono_no_overlap.json":
        ["simulate", "--model", "resnet50", "--platform", "mono", "--no-overlap"],
    # the table formats of each writer, and the topology dump of each kind
    "simulate_resnet50_siph.csv":
        ["simulate", "--model", "resnet50", "--platform", "siph", "--format", "csv"],
    "simulate_lenet5_mono.tsv":
        ["simulate", "--model", "lenet5", "--platform", "mono", "--format", "tsv"],
    "compare_all.tsv": ["compare", "--models", "all", "--format", "tsv"],
    **{f"topology_{p}.json": ["topology", "--platform", p] for p in PLATFORMS},
}


@pytest.fixture(scope="module")
def trailing_config(tmp_path_factory):
    from importlib import resources

    doc = yaml.safe_load(resources.files("cpsim.data").joinpath("default_platform.yaml")
                         .read_text("utf-8"))
    assert doc["options"]["demand_mode"] == "upcoming"
    doc["options"]["demand_mode"] = "trailing"
    path = tmp_path_factory.mktemp("golden") / "trailing.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False), "utf-8")
    return str(path)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, trailing_config):
    argv = [trailing_config if a == TRAILING else a for a in CASES[name]]
    out = tmp_path / name
    assert cli_main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_flag_cases_differ_from_default():
    """Each flag case pins a branch only if it changes resnet50's output."""
    for name in CASES:
        parts = name.removesuffix(".json").split("_")   # simulate, model, platform, flag
        if parts[0] == "simulate" and len(parts) > 3:
            default = GOLDEN / f"simulate_{parts[1]}_{parts[2]}.json"
            assert (GOLDEN / name).read_bytes() != default.read_bytes(), name
