"""End-to-end execution model.

Layers run strictly in order, and a run is priced column by column: one
list per quantity, one entry per layer. ``simulate_model`` works out the
compute-time column on the assigned MAC arrays, then calls the platform's
interconnect builder (photonic gateways, electrical mesh or off-chip link)
once for the read/write transfer time, reconfiguration stall and bits moved
of every layer, and the energy its lasers, conversions, gateway electronics,
controller, mesh or off-chip interface draw. From those it works out the
latency, MAC ring tuning and MAC energy columns, builds each layer's record
once and folds the run's totals from the columns.

On the photonic interposer an epoch controller re-evaluates traffic before
every layer and retunes the phase-change couplers so only the gateways the
demand justifies stay lit; shrinking or growing that active set stalls the
pipeline for one phase-change transition and retunes the laser budget.

What a run works out from its topology and DeviceParams alone is kept in a
``PricingTables`` that the topology holds for the DeviceParams object it last
ran with, found by identity. Besides each route's source power, every table
(MAC costs, mesh hops, write routes, the controller's lit-count states, their
retunes and the lit counts per layer target) is a ``Memo`` declared with its
one rule; the interconnect builders and the controller only look entries up.
Every entry is a pure function of its key and the two objects, so no run's
output depends on which runs came before it.

A single run is sequential and deterministic; identical inputs produce
bit-identical metrics.
"""

from __future__ import annotations

import math
import weakref
from collections import Counter
from functools import reduce
from itertools import repeat
from operator import add, attrgetter
from typing import NamedTuple

# default_config, map_model, build_topology and layer_traffic are unused here;
# bench/tracing.py binds them in engine until the benchmark refresh
from .config import ELEC, MONO, SIPH, SimOptions, default_config
from .devices import (DeviceParams, PcmcState, mr_tuning_power, pcmc_chain_for_equal_split,
                      required_laser_power, source_mw)
from .mapper import MappingError, MappingPlan, map_model
from .platform import (SWMR, SWSR, PlatformTopology, build_topology, electrical_hops,
                       gateway_peak_bandwidth)
from .workload import DnnModelSpec, TrafficVolume, layer_traffic

_BY_LENGTH = attrgetter("path.length_mm")
ENERGY_CATEGORIES = ("laser", "tuning", "conversion", "mac", "gateway_elec",
                     "controller", "electrical_noc")


class LayerResult(NamedTuple):
    layer_index: int
    compute_s: float
    read_s: float
    write_s: float
    overhead_s: float
    layer_latency_s: float
    energy_j: dict[str, float]
    bits_moved: float


class RunMetrics(NamedTuple):
    total_latency_s: float
    total_energy_j: float
    energy_breakdown: dict[str, float]
    avg_power_w: float
    total_bits: int
    epb_j_per_bit: float
    per_layer: tuple[LayerResult, ...]


# ------------------------------------------------------------ shared tables


class Memo(dict):
    """A table whose missing entry is ``rule(key)``, worked out once and kept."""
    def __init__(self, rule) -> None:
        self.rule = rule

    def __missing__(self, key):
        value = self[key] = self.rule(key)
        return value


class PricingTables:
    """What runs price from a topology and a DeviceParams alone: each lazy table
    is a ``Memo`` declared here with its one rule, no entry changing once written. No rule
    holds the topology or tables, so both go with their last reference, nor does an entry
    hold a run's controller. ``MappingError`` names an interposer with no memory chiplet,
    or siph chiplets whose gateways do not each write one route as ``build_topology`` does."""

    def __init__(self, topology: PlatformTopology, params: DeviceParams) -> None:
        self.params = params
        self.memory_ids = memory_ids = [c.id for c in topology.memory_chiplets()]
        if not memory_ids and topology.kind != MONO:
            raise MappingError(f"topology {topology.kind!r} has no memory chiplet")
        # interposer rings stay locked to the WDM grid whether or not their
        # gateway is lit; deactivation saves laser power, not trim power.
        # Other kinds have no interposer rings: 0.0 W
        link_w = mr_tuning_power(topology.total_mrs(), params)
        # (total MACs, vector length) -> (ring trim W of link and MAC pool, converter pJ)
        self.mac_costs = Memo(lambda pool: (
            link_w + mr_tuning_power(pool[0] * pool[1], params),
            params.dac_energy_pj * pool[1] + params.adc_energy_pj))
        if topology.kind == ELEC:
            mesh = weakref.proxy(topology)   # held strongly, the topology would be in a cycle
            # chiplet ids -> (each one's hops from its memory chiplet, the most)
            self.hops = Memo(lambda ids: (each := tuple(
                electrical_hops(memory_ids[i % len(memory_ids)], cid, mesh)
                for i, cid in enumerate(ids)), max(each)))
        if topology.kind != SIPH:
            return
        wired = Counter((r.writer_chiplet, r.writer_index, r.protocol) for r in topology.routes)
        wired.subtract((c.id, k, SWMR if c.role == "memory" else SWSR)
                       for c in topology.chiplets for k in range(c.gateways))
        if unwired := sorted({cid for (cid, _, _), n in wired.items() if n}):
            raise MappingError(f"topology {SIPH!r}: routes do not match the gateways of {unwired}")
        n_wavelengths = topology.platform.n_wavelengths
        self.gw_bw = gw_bw = gateway_peak_bandwidth(topology)
        self.gateways = gateways = {c.id: c.gateways for c in topology.chiplets}

        def lit_counts(wanted):   # the lit-count clamp: at least 1, at most all
            return tuple(max(1, min(wanted.get(cid, 0), n)) for cid, n in gateways.items())
        self.lit_counts = lit_counts
        # in topology order, so the laser sum keeps its float order
        routes = [(r.writer_chiplet, r.writer_index, source_mw(r.path, params))
                  for r in topology.routes]
        self.read_route = max((r for r in topology.routes if r.protocol == SWMR), key=_BY_LENGTH)
        writes = [r for r in topology.routes if r.protocol == SWSR]
        # chiplet ids -> a longest write route of those chiplets
        self.write_routes = Memo(lambda ids: max((r for r in writes if r.writer_chiplet in ids),
                                                 key=_BY_LENGTH))

        def state(counts):   # lit counts -> (active, laser W, bandwidths per chiplet set)
            active = dict(zip(gateways, counts))
            # every chiplet keeps gateway 0 lit, so some route is always driven
            lit_mw = [mw for cid, k, mw in routes if k < active[cid]]
            return active, required_laser_power(lit_mw, n_wavelengths, params), Memo(
                lambda ids: (sum(active[m] for m in memory_ids) * gw_bw,
                             sum(active[c] for c in ids) * gw_bw))
        self.states = Memo(state)
        # (old, new) lit counts -> couplers retuned
        self.retunes = Memo(lambda pair: sum(max(b, a) for b, a in zip(*pair) if b != a))
        # (ids, n, n_memory) -> lit counts: n wanted per chiplet of ids, n_memory per memory
        self.layer_counts = Memo(lambda target: lit_counts(
            dict.fromkeys(target[0], target[1]) | dict.fromkeys(memory_ids, target[2])))


def pricing_tables(topology: PlatformTopology, params: DeviceParams) -> PricingTables:
    """The tables ``topology`` holds for ``params``: those of the last run if
    it ran with this very DeviceParams object, else new ones, which replace them."""
    slot = topology.pricing
    tables = slot[0]
    if tables is None or tables.params is not params:
        tables = slot[0] = PricingTables(topology, params)
    return tables


# ------------------------------------------------------- epoch controller


class EpochController:
    """The photonic interposer's epoch controller. Its state is the number of
    lit gateways per chiplet, always the first ones on the chiplet's laser
    trunk; the coupler settings and the laser power follow from it. A layer's
    target state follows from two integers, the gateways its demand fills on
    each assigned and on each memory chiplet. Each state's ``active`` dict,
    laser watts and lit bandwidths, and the retunes of each (old, new) pair,
    are looked up in the ``Memo`` tables of its (topology, params) objects,
    keyed by lit counts; a controller holds only its state."""

    def __init__(self, topology: PlatformTopology, params: DeviceParams) -> None:
        self._tables = pricing_tables(topology, params)
        self._gateways = self._tables.gateways
        self.counts = ()
        self.resize(tuple(self._gateways.values()))   # power-on: every gateway lit

    def lit_counts(self, wanted: dict[str, int]) -> tuple[int, ...]:
        """The state for ``wanted`` gateways per chiplet, at least 1 and at most all."""
        return self._tables.lit_counts(wanted)

    def resize(self, counts: tuple[int, ...]) -> int:
        """Enter the state ``counts``; returns the couplers retuned, ``max(before, after)``
        per resized trunk: every lit tap's share changes and every tap going lit or dark flips."""
        old, tables = self.counts, self._tables
        if counts == old:
            return 0
        self.counts = counts
        self.active, self.laser_w, self._bandwidths_of = tables.states[counts]
        return tables.retunes[old, counts]

    def bandwidths(self, ids: tuple[str, ...]) -> tuple[float, float]:
        """Bits/s through the lit gateways of the memory chiplets and of ``ids``."""
        return self._bandwidths_of[ids]

    def couplers(self, chiplet_id: str) -> list[PcmcState]:
        """Coupler states along the chiplet's trunk: the trunk is split
        equally over its lit gateways, dark gateways pass it along."""
        lit = self.active[chiplet_id]
        return pcmc_chain_for_equal_split([k < lit for k in range(self._gateways[chiplet_id])])


# ---------------------------------------------------------- interconnects
# One builder per platform kind prices a whole run's data movement from the
# model's traffic, the plan's chiplet-set column and the compute-time column. It
# returns the per-layer columns read_s, write_s, overhead_s and bits_moved,
# and a function of the latency column giving the columns of the kind's own
# energy categories: laser, conversion, gateway_elec, controller and
# electrical_noc, a literal 0.0 per layer where the kind has no hardware.


def _photonic(topology: PlatformTopology, tables: PricingTables, options: SimOptions,
              traffic: tuple[TrafficVolume, ...], chiplet_ids: tuple[tuple[str, ...], ...],
              compute: list[float]):
    """Photonic interposer: the epoch controller resizes the lit gateways
    before every layer; a resize stalls for one phase-change transition.
    A transfer is serialization at the slower endpoint, plus waveguide
    propagation and fixed store-and-forward gateway buffering."""
    params = tables.params
    controller = EpochController(topology, params)
    layer_counts, write_routes = tables.layer_counts, tables.write_routes
    n_memory, gw_bw = len(tables.memory_ids), tables.gw_bw
    velocity = params.group_velocity_mm_per_s
    read_flight = tables.read_route.path.length_mm / velocity
    hold = options.gateway_overhead_cycles / topology.platform.gateway_freq_hz
    refetch, epoch_s = options.weight_refetch_factor, options.epoch_s
    resipi, trailing = options.resipi_enabled, options.demand_mode == "trailing"
    previous = ((), 0, 0)   # no history: the state with only gateway 0 of each chiplet lit
    rows = []

    for t, ids, compute_s in zip(traffic, chiplet_ids, compute):
        weight_bits = t.weight_bits * refetch
        read_bits = weight_bits + t.input_bits
        write_bits = float(t.output_bits)
        switched = 0
        if resipi:
            # every assigned chiplet gets one demand share, every memory chiplet another
            window = max(compute_s, epoch_s)
            target = (ids, math.ceil((t.input_bits + (weight_bits + t.output_bits) / len(ids))
                                     / window / gw_bw),
                      math.ceil((read_bits + write_bits) / window / n_memory / gw_bw))
            target, previous = (previous, target) if trailing else (target, target)
            # a changed count always retunes a coupler, so switched > 0 is a resize
            switched = controller.resize(layer_counts[target])
        memory_bw, assigned_bw = controller.bandwidths(ids)
        rows.append((
            (read_bits / min(memory_bw, assigned_bw) + read_flight) + hold,
            (write_bits / min(assigned_bw, memory_bw)
             + write_routes[ids].path.length_mm / velocity) + hold,
            params.pcm_transition_s if switched else 0.0,
            read_bits + write_bits, controller.laser_w, switched))

    read, write, overhead, bits, laser_w, switches = zip(*rows)
    conversion_pj = params.modulator_energy_pj_per_bit + params.filter_pd_energy_pj_per_bit
    gateway_pj, switch_pj = params.gateway_elec_energy_pj_per_bit, options.pcmc_switch_energy_pj
    conversion = [b * conversion_pj * 1e-12 for b in bits]
    gateway = [b * gateway_pj * 1e-12 for b in bits]
    control = [s * switch_pj * 1e-12 for s in switches]
    zeros = [0.0] * len(rows)
    return read, write, overhead, bits, lambda latency: (
        [w * t for w, t in zip(laser_w, latency)], conversion, gateway, control, zeros)


def _mesh(topology: PlatformTopology, tables: PricingTables, options: SimOptions,
          traffic: tuple[TrafficVolume, ...], chiplet_ids: tuple[tuple[str, ...], ...],
          compute: list[float]):
    """Electrical mesh interposer: one router per chiplet, each drawing
    static power for the whole layer. A transfer is the header's per-hop
    router latency plus link serialization, scaled by a congestion factor
    when several chiplets contend for the memory node."""
    p = topology.platform
    static_w = p.noc_router_static_w * (topology.mesh_dims[0] * topology.mesh_dims[1])
    pj_per_bit_hop, noc_freq_hz = p.noc_energy_pj_per_bit_hop, p.noc_freq_hz
    link_bw, router_cycles = p.noc_width_bits * noc_freq_hz, options.router_latency_cycles
    refetch, crowded = options.weight_refetch_factor, options.elec_congestion_factor

    def link(ids):   # chiplet set -> (hops, chiplets, congestion, header seconds)
        hops, worst_hops = tables.hops[ids]
        return (hops, len(ids), crowded if len(ids) > 1 else 1.0,
                worst_hops * router_cycles / noc_freq_hz)
    links, rows = Memo(link), []

    for t, ids in zip(traffic, chiplet_ids):
        hops, n_ids, congestion, header_s = links[ids]
        weight_bits = t.weight_bits * refetch
        # broadcast is replicated on the mesh: every assigned chiplet
        # receives its own copy of the input tensor
        read_bits = weight_bits + t.input_bits * n_ids
        write_bits = float(t.output_bits)
        per_chiplet_bits = (weight_bits + t.output_bits) / n_ids + t.input_bits
        rows.append((header_s + read_bits * congestion / link_bw,
                     header_s + write_bits * congestion / link_bw, read_bits + write_bits,
                     reduce(add, map(per_chiplet_bits.__mul__, hops), 0.0)
                     * pj_per_bit_hop * 1e-12))

    read, write, bits, dynamic = zip(*rows)
    zeros = [0.0] * len(rows)
    return read, write, zeros, bits, lambda latency: (
        zeros, zeros, zeros, zeros, [d + static_w * t for d, t in zip(dynamic, latency)])


def _offchip(topology: PlatformTopology, tables: PricingTables, options: SimOptions,
             traffic: tuple[TrafficVolume, ...], chiplet_ids: tuple[tuple[str, ...], ...],
             compute: list[float]):
    """Monolithic chip: every tensor crosses the off-chip memory interface."""
    bw, pj_per_bit = topology.platform.offchip_bw_bps, topology.platform.offchip_energy_pj_per_bit
    refetch = options.weight_refetch_factor
    read_bits = [t.weight_bits * refetch + t.input_bits for t in traffic]
    write_bits = [float(t.output_bits) for t in traffic]
    bits = [r + w for r, w in zip(read_bits, write_bits)]
    noc = [b * pj_per_bit * 1e-12 for b in bits]
    zeros = [0.0] * len(bits)
    return ([b / bw for b in read_bits], [b / bw for b in write_bits], zeros, bits,
            lambda latency: (zeros, zeros, zeros, zeros, noc))


_INTERCONNECTS = {SIPH: _photonic, ELEC: _mesh, MONO: _offchip}


# ------------------------------------------------------------- simulation


def _plan_columns(model: DnnModelSpec, topology: PlatformTopology, plan: MappingPlan) -> tuple:
    """The plan's assignments transposed, one tuple per field, once checked
    against the model and topology."""
    if plan.model_name != model.name or len(plan.assignments) != len(model.layers):
        raise MappingError(f"plan for {plan.model_name!r} does not match model {model.name!r}")
    columns = _, _, chiplet_ids, total_macs, _ = tuple(zip(*plan.assignments))
    known = {c.id for c in topology.chiplets}
    for ids in dict.fromkeys(chiplet_ids):
        missing = set(ids) - known
        if missing:
            raise MappingError(f"plan names chiplets absent from topology: {sorted(missing)}")
    if min(total_macs) < 1:
        raise MappingError("assignment has no MACs")
    return columns


def simulate_model(model: DnnModelSpec, topology: PlatformTopology, plan: MappingPlan,
                   params: DeviceParams, options: SimOptions | None = None) -> RunMetrics:
    """Run ``model`` as mapped by ``plan`` on ``topology``. Raises OverflowError
    when finite inputs give an infinite latency, energy or power."""
    options = options or SimOptions()
    _, mac_types, chiplet_ids, total_macs, invocations = _plan_columns(model, topology, plan)
    tables, mac_rate_hz = pricing_tables(topology, params), options.mac_rate_hz
    # the assigned pool retires one vector dot per MAC per cycle: cycles in integers, exact
    compute = [-(-i // m) / mac_rate_hz for i, m in zip(invocations, total_macs)]
    read, write, overhead, bits, own_energy = _INTERCONNECTS[topology.kind](
        topology, tables, options, model.traffic, chiplet_ids, compute)
    columns = zip(compute, read, write, overhead)
    latency = ([max(c, r, w) + o for c, r, w, o in columns] if options.overlap
               else [c + r + w + o for c, r, w, o in columns])

    costs = [tables.mac_costs[m, t.vector_len] for m, t in zip(total_macs, mac_types)]
    tuning = [w * t for (w, _), t in zip(costs, latency)]
    mac = [i * pj * 1e-12 for i, (_, pj) in zip(invocations, costs)]
    laser, conversion, gateway, control, noc = own_energy(latency)
    energy = (laser, tuning, conversion, mac, gateway, control, noc)   # ENERGY_CATEGORIES
    energies = [{"laser": la, "tuning": tu, "conversion": cv, "mac": mc, "gateway_elec": ge,
                 "controller": ct, "electrical_noc": en}
                for la, tu, cv, mc, ge, ct, en in zip(*energy)]
    # tuple.__new__ makes each record from its row with no Python-level call
    per_layer = tuple(map(tuple.__new__, repeat(LayerResult), zip(
        [layer.index for layer in model.layers], compute, read, write, overhead, latency,
        energies, bits)))

    # every float sum is a left fold from 0.0 in layer or category order,
    # so no Python version's sum() moves it
    breakdown = {k: reduce(add, column, 0.0) for k, column in zip(ENERGY_CATEGORIES, energy)}
    total_latency = reduce(add, latency, 0.0)
    total_energy = reduce(add, breakdown.values(), 0.0)
    avg_power = total_energy / total_latency if total_latency else 0.0
    if not all(map(math.isfinite, (total_latency, total_energy, avg_power))):
        raise OverflowError(f"{model.name} on {topology.kind} gives latency "
                            f"{total_latency} s and energy {total_energy} J")
    total_bits = model.total_bits
    return RunMetrics(total_latency_s=total_latency, total_energy_j=total_energy,
                      energy_breakdown=breakdown, avg_power_w=avg_power, total_bits=total_bits,
                      epb_j_per_bit=total_energy / total_bits if total_bits else 0.0,
                      per_layer=per_layer)
