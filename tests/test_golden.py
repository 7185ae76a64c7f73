"""Byte-for-byte golden outputs of the CLI.

Each case is a ``cpsim`` argv; ``tests/golden/<name>`` holds the bytes that
argv writes with ``--out tests/golden/<name>``. The flag cases run resnet50,
where each flag changes the output, so each one pins its own branch of the
engine's layer loop. A golden changes only when the model changes on
purpose, and that change lists the deltas in CHANGES.md.
"""

import hashlib
from collections import namedtuple
from pathlib import Path

import pytest
import yaml

from cpsim import (build_topology, default_config, default_platform, load_shipped_model,
                   map_model, with_kind)
from cpsim.cli import cli_main

from conftest import rows

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
    "default_platform": "ef972bdd564ee0cfa8ad330ce35b56bd35921a75216371097c3a094f0500b6de",
    "default_platform_wiring": "4109b5498a8df1f5831e608b802fbb42aa13a5e8535fad33123b9f0b470021fc",
    "elec_topology": "b9f92f081a9023078ef4877b66e24196ef5e277d3bc3e4c384abc09129bf4d70",
    "lenet5": "7962d2e7f8bfad1f2831133277a2810130ef3505d3f5bba999629d6eca9efb60",
    "resnet50_plan": "a9a2db8a8ede3c8b5cde5d6880da3b6bb56bb121beed606dd6723d40d2933d24",
}
RECORDS = {
    "default_config": default_config,
    "default_platform": default_platform,
    # the siph (routes, mrgs), which a topology derives and its repr leaves out
    "default_platform_wiring": lambda: ((t := default_platform()).routes, t.mrgs),
    "elec_topology": lambda: build_topology(with_kind(default_config(), "elec")),
    "lenet5": lambda: load_shipped_model("lenet5"),
    "resnet50_plan": lambda: map_model(load_shipped_model("resnet50"), default_platform()),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_repr_is_pinned(name):
    text = repr(RECORDS[name]())
    assert hashlib.sha256(text.encode()).hexdigest() == RECORD_REPR_SHA256[name]


def test_resnet50_plan_in_the_old_repr_form_keeps_the_old_digest():
    """Before a plan became its columns, a tuple of per-layer rows, before a row
    lost ``layer_index``, and before that ``total_macs``, the resnet50 plan's
    repr hashed to the old digests; those reprs, rebuilt from the new plan's
    columns with each row's index from the model and its ``total_macs`` summed
    from the topology's chiplets, hash to them still."""
    old_plan = namedtuple("MappingPlan", "model_name assignments")
    model, topology = load_shipped_model("resnet50"), default_platform()
    plan = map_model(model, topology)
    layers = rows(plan)   # each layer's (MAC type, chiplet ids, invocations)
    row = namedtuple("LayerAssignment", "mac_type chiplet_ids invocations")
    indexed = namedtuple("LayerAssignment", "layer_index mac_type chiplet_ids invocations")
    macs = namedtuple("LayerAssignment",
                      "layer_index mac_type chiplet_ids total_macs invocations")
    forms = {
        "84684400bfde79687b461d3f4d4a05e9912de5e6f65a5b9d86698981ef2ac5ee": tuple(
            row(*a) for a in layers),
        "e414b6d7c0e30dbb84fd13d17854a45c3c1f46f7e2b9bc0ddcafe0367a717375": tuple(
            indexed(layer.index, *a) for layer, a in zip(model.layers, layers)),
        "c80130ba0a9829ae95f75fb9e10d53eed5d937608d2eb6518ae6c556cd2eb280": tuple(
            macs(layer.index, a.mac_type, a.chiplet_ids,
                 sum(topology.chiplet(c).macs for c in a.chiplet_ids), a.invocations)
            for layer, a in zip(model.layers, layers)),
    }
    assert "assignments" not in repr(plan)
    for digest, old_rows in forms.items():
        text = repr(old_plan(plan.model_name, old_rows))
        assert "LayerAssignment" in text
        assert hashlib.sha256(text.encode()).hexdigest() == digest
