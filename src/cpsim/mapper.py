"""Layer-to-chiplet mapping.

Every layer goes to all chiplets of one MAC type (maximal intra-layer
parallelism); layers execute strictly in order. Oversized dot products are
decomposed into ceil(dot_length / vector_len) sequential chunks whose
partial sums accumulate electronically at the MAC unit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .platform import MacUnitType, PlatformTopology
from .workload import DnnModelSpec, LayerSpec


class MappingError(ValueError):
    """Model cannot be placed on the given topology."""


class LayerAssignment(NamedTuple):
    layer_index: int
    mac_type: MacUnitType
    chiplet_ids: tuple[str, ...]
    total_macs: int
    invocations: int    # dot products times chunks_per_dot


class MappingPlan(NamedTuple):
    model_name: str
    assignments: tuple[LayerAssignment, ...]


def chunks_per_dot(dot_length: int, vector_len: int) -> int:
    if dot_length < 1 or vector_len < 1:
        raise ValueError("dot length and vector length must be >= 1")
    return math.ceil(dot_length / vector_len)


def select_mac_type(layer: LayerSpec, available: list[MacUnitType]) -> MacUnitType:
    """Pick the MAC type for a layer.

    fc: the largest dense type, falling back to the largest type overall.
    conv: an exact kernel-size fit among conv types, else the smallest conv
    type that still fits the kernel window, else the largest type overall
    (chunking absorbs the mismatch). Ties break toward the smaller vector.
    """
    if not available:
        raise MappingError("no MAC types available")
    by_len = sorted(available, key=lambda t: (t.vector_len, t.name))
    if layer.kind == "fc":
        dense = [t for t in by_len if t.family == "dense"]
        pool = dense or by_len
        return max(pool, key=lambda t: t.vector_len)
    window = layer.kernel_h * layer.kernel_w
    conv = [t for t in by_len if t.family == "conv"]
    exact = [t for t in conv if t.vector_len == window]
    if exact:
        return exact[0]
    fitting = [t for t in conv if t.vector_len >= window]
    if fitting:
        return fitting[0]
    return max(by_len, key=lambda t: t.vector_len)


def map_model(model: DnnModelSpec, topology: PlatformTopology) -> MappingPlan:
    """Assign every layer to all chiplets of its selected MAC type."""
    compute = topology.compute_chiplets()
    if not compute:
        raise MappingError(f"topology {topology.kind!r} has no compute chiplets")
    # a type is its name and its vector length: chiplets of one name may differ in lanes
    available = list(dict.fromkeys(c.mac_type for c in compute))

    # the MAC type depends only on the layer's kind and kernel window
    placements: dict[tuple[str, int], tuple[MacUnitType, tuple[str, ...], int]] = {}
    assignments = []
    for layer in model.layers:
        window = (layer.kind, layer.kernel_h * layer.kernel_w)
        placement = placements.get(window)
        if placement is None:
            mac_type = select_mac_type(layer, available)
            chiplets = [c for c in compute if c.mac_type == mac_type]
            placement = placements[window] = (mac_type, tuple(c.id for c in chiplets),
                                              sum(c.macs for c in chiplets))
        mac_type, chiplet_ids, total_macs = placement
        invocations = layer.dot_products * chunks_per_dot(layer.dot_length, mac_type.vector_len)
        assignments.append(LayerAssignment(layer.index, mac_type, chiplet_ids, total_macs,
                                           invocations))
    return MappingPlan(model_name=model.name, assignments=tuple(assignments))
