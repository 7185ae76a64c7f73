from typing import NamedTuple

import pytest
from hypothesis import settings

from cpsim import build_topology, default_config, load_shipped_model, map_model, simulate_model, with_kind
from cpsim.platform import MacUnitType

SHIPPED = ("lenet5", "resnet50", "densenet121", "vgg16", "mobilenetv2")
KINDS = ("siph_interposer", "elec_interposer", "monolithic")

# 20 examples for a property test that sets no max_examples of its own (the
# from-scratch reference engine's), in a local run and under the "ci" profile
# Hypothesis loads where the CI variable is set; pytest
# --hypothesis-profile=deep draws 300
settings.register_profile("default", max_examples=20)
settings.register_profile("ci", max_examples=20)
settings.register_profile("deep", max_examples=300)


class Row(NamedTuple):
    """Layer i of a plan: its set's MAC type and chiplet ids, and its invocations."""
    mac_type: MacUnitType
    chiplet_ids: tuple[str, ...]
    invocations: int


def rows(plan) -> list[Row]:
    """Each layer's row, read from the plan's columns: ``plan.sets[plan.set_of[i]]``."""
    return [Row(plan.sets[k][1], plan.sets[k][0], invocations)
            for k, invocations in zip(plan.set_of, plan.invocations)]


@pytest.fixture(scope="session")
def cfg():
    return default_config()


@pytest.fixture(scope="session")
def sweep(cfg):
    """RunMetrics for every shipped model on every platform variant."""
    results = {}
    for name in SHIPPED:
        model = load_shipped_model(name)
        for kind in KINDS:
            variant = with_kind(cfg, kind)
            topology = build_topology(variant)
            plan = map_model(model, topology)
            results[(name, kind)] = simulate_model(model, topology, plan,
                                                   variant.devices, variant.options)
    return results
