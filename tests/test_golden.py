"""Byte-for-byte golden outputs of the CLI.

Each case is a ``cpsim`` argv; ``tests/golden/<name>`` holds the bytes that
argv writes with ``--out tests/golden/<name>``. The flag cases run resnet50,
where each flag changes the output, so each one pins its own branch of the
engine's layer loop. A golden changes only when the model changes on
purpose, and that change lists the deltas in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest
import yaml

from cpsim import (build_topology, default_config, default_platform, load_shipped_model,
                   map_model, with_kind)
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


# sha256 of the repr of each record tree; a repr names every field and value
# of every nested record, so a change to how records are built shows here
RECORD_REPR_SHA256 = {
    "default_config": "7fab366341880dea1d34a5d4345c9214e40a7ab5f398cee915b1f009415feae5",
    "default_platform": "adba4492ab10fbf42046c7106c9feab47e6c395800aa7664ce56aaf0ede70a8a",
    "elec_topology": "296549c4a766188d54a2be6668eb7e7b5587de1f4715f00a282b192076692127",
    "lenet5": "7962d2e7f8bfad1f2831133277a2810130ef3505d3f5bba999629d6eca9efb60",
    "resnet50_plan": "c80130ba0a9829ae95f75fb9e10d53eed5d937608d2eb6518ae6c556cd2eb280",
}
RECORDS = {
    "default_config": default_config,
    "default_platform": default_platform,
    "elec_topology": lambda: build_topology(with_kind(default_config(), "elec")),
    "lenet5": lambda: load_shipped_model("lenet5"),
    "resnet50_plan": lambda: map_model(load_shipped_model("resnet50"), default_platform()),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_repr_is_pinned(name):
    text = repr(RECORDS[name]())
    assert hashlib.sha256(text.encode()).hexdigest() == RECORD_REPR_SHA256[name]
