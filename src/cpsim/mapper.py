"""Layer-to-chiplet mapping.

Every layer goes to all chiplets of one MAC type (maximal intra-layer
parallelism); layers execute strictly in order. Oversized dot products are
decomposed into ceil(dot_length / vector_len) sequential chunks whose
partial sums accumulate electronically at the MAC unit. A plan is built a
column at a time: one placement per (kind, kernel window), then each
layer's invocations and record from the columns.
"""

from __future__ import annotations

from itertools import repeat
from operator import mul
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
    """ceil(dot_length / vector_len) in integers, exact at any length."""
    if dot_length < 1 or vector_len < 1:
        raise ValueError("dot length and vector length must be >= 1")
    return -(-dot_length // vector_len)


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
    layers = model.layers
    index, kind, kernel_h, kernel_w, in_channels, out_channels, _, _, out_h, out_w = list(
        zip(*layers))[:10]

    # the MAC type depends only on the layer's kind and kernel window: one
    # placement per window, any of its layers standing for the rest
    sizes = list(map(mul, kernel_h, kernel_w))
    windows = list(zip(kind, sizes))
    placements = {}
    for window, layer in dict(zip(windows, layers)).items():
        mac_type = select_mac_type(layer, available)
        chiplets = [c for c in compute if c.mac_type == mac_type]
        placements[window] = (mac_type, tuple(c.id for c in chiplets),
                              sum(c.macs for c in chiplets))
    mac_types, chiplet_ids, total_macs = zip(*map(placements.__getitem__, windows))
    # LayerSpec.dot_length and dot_products, a column at a time
    dot_lengths = map(mul, sizes, in_channels)
    chunks = map(chunks_per_dot, dot_lengths, [t.vector_len for t in mac_types])
    invocations = map(mul, map(mul, map(mul, out_h, out_w), out_channels), chunks)
    # tuple.__new__ makes each record from its row with no Python-level call
    return MappingPlan(model.name, tuple(map(tuple.__new__, repeat(LayerAssignment), zip(
        index, mac_types, chiplet_ids, total_macs, invocations))))
