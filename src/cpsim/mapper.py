"""Layer-to-chiplet mapping.

Every layer goes to all chiplets of one MAC type (maximal intra-layer
parallelism); layers execute strictly in order. Oversized dot products are
decomposed into ceil(dot_length / vector_len) sequential chunks whose
partial sums accumulate electronically at the MAC unit. One walk over the
compute chiplets pools each MAC type's ids; each (kind, kernel window) takes
its type's chiplets. A plan is the columns a run reads, worked out from the
model's named columns and checked when built: its distinct (chiplet ids, MAC
type) sets numbered by first use, and each layer's set number and invocations.
The engine checks each set against the topology it prices on.
"""

from __future__ import annotations

from operator import mul

from .devices import Record, check_fields
from .platform import MacUnitType, PlatformTopology
from .workload import DnnModelSpec, LayerSpec


class MappingError(ValueError):
    """Model cannot be placed on the given topology."""


class MappingPlan(Record):
    model_name: str
    sets: tuple[tuple[tuple[str, ...], MacUnitType], ...]   # (chiplet ids, MAC type)
    set_of: tuple[int, ...]        # layer i's set number, sets numbered by first use
    invocations: tuple[int, ...]   # layer i's dot products times chunks_per_dot

    def __post_init__(self) -> None:
        where = f"plan for {self.model_name!r}: "
        check_fields(self, MappingError, where)
        sets, set_of, invocations = self.sets, self.set_of, self.invocations
        for n, pair in enumerate(sets):
            if not (isinstance(pair, tuple) and len(pair) == 2 and isinstance(pair[0], tuple)
                    and {str}.issuperset(map(type, pair[0])) and isinstance(pair[1], MacUnitType)):
                raise MappingError(f"{where}set {n} is {pair!r}, not (chiplet ids, MacUnitType)")
            if pair in sets[:n]:
                raise MappingError(f"{where}set {n} repeats set {sets.index(pair)}, {pair!r}")
        if {*map(type, set_of)} - {int} or [*dict.fromkeys(set_of)] != [*range(len(sets))]:
            raise MappingError(f"{where}set_of must number all {len(sets)} sets in integers "
                               f"from 0, in order of first use, got {set_of!r}")
        if len(invocations) != len(set_of):
            raise MappingError(f"{where}{len(invocations)} invocations for {len(set_of)} layers")


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
        placements[window] = (t.vector_len, used.setdefault(t, len(used)))
    lanes, set_of = zip(*map(placements.__getitem__, windows))
    # LayerSpec.dot_length and dot_products, a column at a time
    chunks = map(chunks_per_dot, map(mul, sizes, c.in_channels), lanes)
    invocations = tuple(map(mul, map(mul, map(mul, c.out_h, c.out_w), c.out_channels), chunks))
    # a type's chiplets are its own, so each type is one (chiplet ids, MAC type) set of the plan
    return MappingPlan(model.name, tuple((pools[t], t) for t in used), set_of, invocations)
