"""Layer-to-chiplet mapping.

Every layer goes to all chiplets of one MAC type (maximal intra-layer
parallelism); layers execute strictly in order. Oversized dot products are
decomposed into ceil(dot_length / vector_len) sequential chunks whose
partial sums accumulate electronically at the MAC unit. One walk over the
compute chiplets pools each MAC type's ids; each (kind, kernel window) takes
its type's chiplets, and the records come from named columns. Row *i* names layer
*i*'s chiplets and MAC type; the engine sums their MACs from the topology it prices on.

A plan caches the columns a run reads, not as a field, so equality, ``repr``
and ``_replace`` do not see them: its chiplet sets, each layer's set number and
its invocations. Each distinct (chiplet ids, MAC type) of the rows is one set,
numbered by first use. ``map_model`` hands over those it built; a plan built by
hand is checked row by row and transposed once, when first priced.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from operator import mul
from typing import NamedTuple

from .platform import MacUnitType, PlatformTopology
from .workload import DnnModelSpec, LayerSpec


class MappingError(ValueError):
    """Model cannot be placed on the given topology."""


class LayerAssignment(NamedTuple):   # row i assigns the model's layer i
    mac_type: MacUnitType
    chiplet_ids: tuple[str, ...]
    invocations: int    # dot products times chunks_per_dot


class _PlanFields(NamedTuple):
    model_name: str
    assignments: tuple[LayerAssignment, ...]


class MappingPlan(_PlanFields):   # no __slots__: a plan has a __dict__ for its cache
    @cached_property
    def _columns(self) -> tuple:
        """((chiplet ids, MAC type) sets, set numbers, invocations), once each row is checked."""
        for row, (mac_type, ids, _) in enumerate(self.assignments):
            if not (isinstance(mac_type, MacUnitType) and isinstance(ids, tuple)):
                raise MappingError(f"plan row {row} names MAC type {mac_type!r} on chiplets "
                                   f"{ids!r}: a MacUnitType on a tuple of chiplet ids is wanted")
        mac_types, chiplet_ids, invocations = zip(*self.assignments)
        keys = list(zip(chiplet_ids, mac_types))
        number = {key: n for n, key in enumerate(dict.fromkeys(keys))}   # by first use
        return list(number), list(map(number.__getitem__, keys)), list(invocations)


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
    pools = {}   # MAC type (name and lanes) -> its chiplets' ids, in first-seen order
    for chiplet in topology.compute_chiplets():
        pools[chiplet.mac_type] = (*pools.get(chiplet.mac_type, ()), chiplet.id)
    c = LayerSpec._make(zip(*model.layers))   # each field holds its column

    # a type depends only on kind and window: one placement per window, by any of its layers
    sizes = list(map(mul, c.kernel_h, c.kernel_w))
    windows = list(zip(c.kind, sizes))
    types, used, placements = list(pools), {}, {}   # used: type -> set number, by first use
    for window, layer in dict(zip(windows, model.layers)).items():
        t = select_mac_type(layer, types)
        placements[window] = (t, pools[t], used.setdefault(t, len(used)))
    mac_types, chiplet_ids, set_of = zip(*map(placements.__getitem__, windows))
    # LayerSpec.dot_length and dot_products, a column at a time
    dot_lengths = map(mul, sizes, c.in_channels)
    chunks = map(chunks_per_dot, dot_lengths, [t.vector_len for t in mac_types])
    invocations = list(map(mul, map(mul, map(mul, c.out_h, c.out_w), c.out_channels), chunks))
    # tuple.__new__ makes each record from its row with no Python-level call
    plan = MappingPlan(model.name, tuple(map(tuple.__new__, repeat(LayerAssignment), zip(
        mac_types, chiplet_ids, invocations))))
    # a type's chiplets are its own, so each type is one (chiplet ids, MAC type) set of the plan
    plan._columns = [(pools[t], t) for t in used], list(set_of), invocations
    return plan
