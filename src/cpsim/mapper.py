"""Layer-to-chiplet mapping.

Every layer goes to all chiplets of one MAC type (maximal intra-layer
parallelism); layers execute strictly in order. Oversized dot products are
decomposed into ceil(dot_length / vector_len) sequential chunks whose
partial sums accumulate electronically at the MAC unit. One walk over the
compute chiplets pools each MAC type's ids and MACs; each (kind, kernel
window) takes its type's pool, and the records come from named columns.
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
    conv: the first conv type, in (vector_len, name) order, that fits the
    kernel window, which is an exact fit whenever one exists; else the
    largest type overall (chunking absorbs the mismatch). Ties break toward
    the smaller vector.
    """
    if not available:
        raise MappingError("no MAC types available")
    by_len = sorted(available, key=lambda t: (t.vector_len, t.name))
    if layer.kind == "fc":
        dense = [t for t in by_len if t.family == "dense"]
        return max(dense or by_len, key=lambda t: t.vector_len)
    window = layer.kernel_h * layer.kernel_w
    fitting = [t for t in by_len if t.family == "conv" and t.vector_len >= window]
    return fitting[0] if fitting else max(by_len, key=lambda t: t.vector_len)


def map_model(model: DnnModelSpec, topology: PlatformTopology) -> MappingPlan:
    """Assign every layer to all chiplets of its selected MAC type."""
    pools = {}   # MAC type (name and lanes) -> its chiplets' ids and MACs, in first-seen order
    for chiplet in topology.compute_chiplets():
        ids, macs = pools.get(chiplet.mac_type, ((), 0))
        pools[chiplet.mac_type] = ((*ids, chiplet.id), macs + chiplet.macs)
    if not pools:
        raise MappingError(f"topology {topology.kind!r} has no compute chiplets")
    c = LayerSpec._make(zip(*model.layers))   # each field holds its column

    # a type depends only on kind and window: one placement per window, by any of its layers
    sizes = list(map(mul, c.kernel_h, c.kernel_w))
    windows = list(zip(c.kind, sizes))
    placements = {window: (mac_type := select_mac_type(layer, list(pools)), *pools[mac_type])
                  for window, layer in dict(zip(windows, model.layers)).items()}
    mac_types, chiplet_ids, total_macs = zip(*map(placements.__getitem__, windows))
    # LayerSpec.dot_length and dot_products, a column at a time
    dot_lengths = map(mul, sizes, c.in_channels)
    chunks = map(chunks_per_dot, dot_lengths, [t.vector_len for t in mac_types])
    invocations = map(mul, map(mul, map(mul, c.out_h, c.out_w), c.out_channels), chunks)
    # tuple.__new__ makes each record from its row with no Python-level call
    return MappingPlan(model.name, tuple(map(tuple.__new__, repeat(LayerAssignment), zip(
        c.index, mac_types, chiplet_ids, total_macs, invocations))))
