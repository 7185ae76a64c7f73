"""End-to-end execution model.

Layers run strictly in order, through one loop for every platform. Per
layer the loop prices compute time on the assigned MAC arrays, MAC ring
tuning and MAC energy, and asks the platform's interconnect (photonic
gateways, electrical mesh or off-chip link) for the read/write transfer
time, any reconfiguration stall, and the energy its lasers, conversions,
gateway electronics, controller, mesh or off-chip interface draw.

On the photonic interposer an epoch controller re-evaluates traffic before
every layer and retunes the phase-change couplers so only the gateways the
demand justifies stay lit; shrinking or growing that active set stalls the
pipeline for one phase-change transition and retunes the laser budget.

What a run works out from its topology and DeviceParams alone is kept in a
``PricingTables`` that the topology holds for the DeviceParams object it last
ran with: the priced route paths, the controller's lit-count states with
their laser watts and bandwidths, the retunes per pair of states, the write
route and lit counts per chiplet set, the mesh hops and the MAC costs. Every
later run on the same two objects reads them; a run keeps only the
controller's current state, the trailing target and its results. The tables
are found by object identity, not equality: one ``is`` test instead of
comparing every route and device field, a table is reached only through the
topology that holds it, and since every entry is a pure function of its key
and the two objects, no run's output depends on which runs came before it.

A single run is sequential and deterministic; identical inputs produce
bit-identical metrics.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add, attrgetter
from typing import NamedTuple

# default_config, map_model, build_topology and layer_traffic are unused here;
# bench/tracing.py binds them in engine until the benchmark refresh
from .config import ELEC, MONO, SIPH, SimOptions, default_config
from .devices import (DeviceParams, PcmcState, mr_tuning_power, pcmc_chain_for_equal_split,
                      required_laser_power, source_mw)
from .mapper import LayerAssignment, MappingError, MappingPlan, map_model
from .platform import (SWMR, SWSR, PlatformTopology, WaveguideRoute, build_topology,
                       electrical_hops, gateway_peak_bandwidth)
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


# ------------------------------------------------------------ primitives


def compute_time(assignment: LayerAssignment, mac_rate_hz: float) -> float:
    """Seconds for the assigned MAC pool to retire all invocations, one
    vector dot per MAC per cycle. ``SimOptions`` keeps the rate positive and
    ``simulate_model`` rejects a plan with a MAC-less layer before its loop."""
    return math.ceil(assignment.invocations / assignment.total_macs) / mac_rate_hz


def transfer_time_photonic(bits: float, writer_bw: float, reader_bw: float,
                           route: WaveguideRoute, params: DeviceParams,
                           gateway_freq_hz: float, overhead_cycles: int) -> float:
    """Serialization at the slower endpoint, plus waveguide propagation and
    fixed store-and-forward gateway buffering. A lit gateway count is at
    least 1, so both bandwidths are positive."""
    serialization = bits / min(writer_bw, reader_bw)
    propagation = route.path.length_mm / params.group_velocity_mm_per_s
    overhead = overhead_cycles / gateway_freq_hz
    return serialization + propagation + overhead


def transfer_time_electrical(bits: float, header_s: float, link_bw: float,
                             congestion: float) -> float:
    """The header's per-hop router latency plus link serialization, scaled by
    a congestion factor when several chiplets contend for the memory node."""
    return header_s + bits * congestion / link_bw


# ------------------------------------------------------------ shared tables


class PricingTables:
    """What runs price from a topology and a DeviceParams alone. The eager
    part is built with the tables; every dict starts empty, the first run to
    need an entry fills it, and no entry changes once written. Entries hold
    numbers, tuples and routes only, never a run's controller or closures."""

    def __init__(self, topology: PlatformTopology, params: DeviceParams) -> None:
        self.params = params
        self.memory_ids = [c.id for c in topology.memory_chiplets()]
        # interposer rings stay locked to the WDM grid whether or not their
        # gateway is lit; deactivation saves laser power, not trim power.
        # Other kinds have no interposer rings: 0.0 W
        self.link_tuning_w = mr_tuning_power(topology.total_mrs(), params)
        self.mac_costs: dict = {}   # (total MACs, vector length) -> (trim W, converter pJ)
        self.per_set: dict = {}     # chiplet ids -> write route (siph), hops and worst (elec)
        if topology.kind != SIPH:
            return
        self.n_wavelengths = topology.platform.n_wavelengths
        self.gw_bw = gateway_peak_bandwidth(topology)
        self.gateways = {c.id: c.gateways for c in topology.chiplets}
        # routes share a few distinct paths, each priced once; routes keep
        # topology order, so the laser sum keeps its float order
        path_mw = {p: source_mw(p, params) for p in {r.path for r in topology.routes}}
        self.routes = [(r.writer_chiplet, r.writer_index, path_mw[r.path])
                       for r in topology.routes]
        self.read_route = max((r for r in topology.routes if r.protocol == SWMR), key=_BY_LENGTH)
        # lit counts -> (active, laser W, bandwidths per chiplet set);
        # (old, new) lit counts -> retunes; (ids, n, n_memory) -> lit counts
        self.states: dict = {}
        self.retunes: dict = {}
        self.layer_counts: dict = {}


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
    are worked out once per (topology, params) objects, keyed by lit counts,
    and kept in their ``PricingTables``; a controller holds only its state."""

    def __init__(self, topology: PlatformTopology, params: DeviceParams) -> None:
        self._tables = pricing_tables(topology, params)
        self._gateways = self._tables.gateways
        self.counts = ()
        self.resize(tuple(self._gateways.values()))   # power-on: every gateway lit

    def lit_counts(self, wanted: dict[str, int]) -> tuple[int, ...]:
        """The state for ``wanted`` gateways per chiplet, at least 1 and at most all."""
        return tuple(max(1, min(wanted.get(cid, 0), n)) for cid, n in self._gateways.items())

    def resize(self, counts: tuple[int, ...]) -> int:
        """Enter the state ``counts``; returns the couplers retuned, ``max(before, after)``
        per resized trunk: every lit tap's share changes and every tap going lit or dark flips."""
        old, tables = self.counts, self._tables
        if counts == old:
            return 0
        retuned = tables.retunes.get((old, counts))
        if retuned is None:
            retuned = tables.retunes[old, counts] = sum(max(b, a) for b, a in zip(old, counts)
                                                        if b != a)
        state = tables.states.get(counts)
        if state is None:
            active = dict(zip(self._gateways, counts))
            # every chiplet keeps gateway 0 lit, so some route is always driven
            lit_mw = [mw for cid, k, mw in tables.routes if k < active[cid]]
            state = tables.states[counts] = (active, required_laser_power(
                lit_mw, tables.n_wavelengths, tables.params), {})
        self.counts, (self.active, self.laser_w, self._bandwidths_of) = counts, state
        return retuned

    def bandwidths(self, ids: tuple[str, ...]) -> tuple[float, float]:
        """Bits/s through the lit gateways of the memory chiplets and of ``ids``."""
        bandwidths = self._bandwidths_of.get(ids)
        if bandwidths is None:
            lit, tables = self.active, self._tables
            bandwidths = self._bandwidths_of[ids] = (
                sum(lit[m] for m in tables.memory_ids) * tables.gw_bw,
                sum(lit[c] for c in ids) * tables.gw_bw)
        return bandwidths

    def couplers(self, chiplet_id: str) -> list[PcmcState]:
        """Coupler states along the chiplet's trunk: the trunk is split
        equally over its lit gateways, dark gateways pass it along."""
        lit = self.active[chiplet_id]
        return pcmc_chain_for_equal_split([k < lit for k in range(self._gateways[chiplet_id])])


# ---------------------------------------------------------- interconnects
# One factory per platform kind returns a function pricing one layer's data
# movement as (read_s, write_s, overhead_s, bits_moved, joules, watts) from
# the run's options and the shared tables. ``joules`` holds the energy of the
# interconnect's own categories, ``watts`` the power of those it draws for
# the whole layer.


def _photonic(topology: PlatformTopology, tables: PricingTables, options: SimOptions):
    """Photonic interposer: the epoch controller resizes the lit gateways
    before every layer; a resize stalls for one phase-change transition."""
    params = tables.params
    controller = EpochController(topology, params)
    memory_ids, write_routes, layer_counts = tables.memory_ids, tables.per_set, tables.layer_counts
    read_route, gw_bw = tables.read_route, tables.gw_bw
    freq, cycles = topology.platform.gateway_freq_hz, options.gateway_overhead_cycles
    conversion_pj = params.modulator_energy_pj_per_bit + params.filter_pd_energy_pj_per_bit
    trailing = options.demand_mode == "trailing"
    previous = ((), 0, 0)   # no history: the state with only gateway 0 of each chiplet lit

    def layer(traffic: TrafficVolume, assignment: LayerAssignment, compute_s: float):
        nonlocal previous
        ids = assignment.chiplet_ids
        write_route = write_routes.get(ids)
        if write_route is None:   # a longest write route of the set's chiplets
            write_route = write_routes[ids] = max(
                (r for r in topology.routes if r.protocol == SWSR and r.writer_chiplet in ids),
                key=_BY_LENGTH)
        weight_bits = traffic.weight_bits * options.weight_refetch_factor
        read_bits = weight_bits + traffic.input_bits
        write_bits = float(traffic.output_bits)

        overhead_s, switched = 0.0, 0
        if options.resipi_enabled:
            # every assigned chiplet gets one demand share, every memory chiplet another
            window = max(compute_s, options.epoch_s)
            target = (ids, math.ceil((traffic.input_bits + (weight_bits + traffic.output_bits)
                                      / len(ids)) / window / gw_bw),
                      math.ceil((read_bits + write_bits) / window / len(memory_ids) / gw_bw))
            target, previous = (previous, target) if trailing else (target, target)
            counts = layer_counts.get(target)
            if counts is None:   # n gateways wanted per chiplet of ids, n_memory per memory
                wanted_ids, n, n_memory = target
                counts = layer_counts[target] = controller.lit_counts(
                    dict.fromkeys(wanted_ids, n) | dict.fromkeys(memory_ids, n_memory))
            # a changed count always retunes a coupler, so switched > 0 is a resize
            switched = controller.resize(counts)
            if switched:
                overhead_s = params.pcm_transition_s

        memory_bw, assigned_bw = controller.bandwidths(ids)
        read_s = transfer_time_photonic(read_bits, memory_bw, assigned_bw, read_route,
                                        params, freq, cycles)
        write_s = transfer_time_photonic(write_bits, assigned_bw, memory_bw, write_route,
                                         params, freq, cycles)

        bits = read_bits + write_bits
        joules = {
            "conversion": bits * conversion_pj * 1e-12,
            "gateway_elec": bits * params.gateway_elec_energy_pj_per_bit * 1e-12,
            "controller": switched * options.pcmc_switch_energy_pj * 1e-12,
        }
        return read_s, write_s, overhead_s, bits, joules, {"laser": controller.laser_w}

    return layer


def _mesh(topology: PlatformTopology, tables: PricingTables, options: SimOptions):
    """Electrical mesh interposer: one router per chiplet, each drawing
    static power for the whole layer."""
    memory_ids, hops_of = tables.memory_ids, tables.per_set
    if not memory_ids:
        raise MappingError("electrical topology has no memory chiplet")
    p = topology.platform
    n_routers = topology.mesh_dims[0] * topology.mesh_dims[1]
    pj_per_bit_hop, noc_freq_hz = p.noc_energy_pj_per_bit_hop, p.noc_freq_hz
    link_bw, router_cycles = p.noc_width_bits * noc_freq_hz, options.router_latency_cycles
    watts = {"electrical_noc": p.noc_router_static_w * n_routers}

    def layer(traffic: TrafficVolume, assignment: LayerAssignment, compute_s: float):
        ids = assignment.chiplet_ids
        entry = hops_of.get(ids)
        if entry is None:   # each chiplet's hops from its memory chiplet, and the most
            hops = tuple(electrical_hops(memory_ids[i % len(memory_ids)], cid, topology)
                         for i, cid in enumerate(ids))
            entry = hops_of[ids] = (hops, max(hops))
        (hops, worst_hops), n_ids = entry, len(ids)
        congestion = options.elec_congestion_factor if n_ids > 1 else 1.0
        weight_bits = traffic.weight_bits * options.weight_refetch_factor
        # broadcast is replicated on the mesh: every assigned chiplet
        # receives its own copy of the input tensor
        read_bits = weight_bits + traffic.input_bits * n_ids
        write_bits = float(traffic.output_bits)
        header_s = worst_hops * router_cycles / noc_freq_hz
        read_s = transfer_time_electrical(read_bits, header_s, link_bw, congestion)
        write_s = transfer_time_electrical(write_bits, header_s, link_bw, congestion)

        per_chiplet_bits = (weight_bits + traffic.output_bits) / n_ids + traffic.input_bits
        noc_dynamic_j = reduce(add, [per_chiplet_bits * h for h in hops], 0.0) \
            * pj_per_bit_hop * 1e-12
        return (read_s, write_s, 0.0, read_bits + write_bits,
                {"electrical_noc": noc_dynamic_j}, watts)

    return layer


def _offchip(topology: PlatformTopology, tables: PricingTables, options: SimOptions):
    """Monolithic chip: every tensor crosses the off-chip memory interface."""
    bw, pj_per_bit = topology.platform.offchip_bw_bps, topology.platform.offchip_energy_pj_per_bit

    def layer(traffic: TrafficVolume, assignment: LayerAssignment, compute_s: float):
        read_bits = traffic.weight_bits * options.weight_refetch_factor + traffic.input_bits
        write_bits = float(traffic.output_bits)
        bits = read_bits + write_bits
        joules = {"electrical_noc": bits * pj_per_bit * 1e-12}
        return read_bits / bw, write_bits / bw, 0.0, bits, joules, {}

    return layer


_INTERCONNECTS = {SIPH: _photonic, ELEC: _mesh, MONO: _offchip}


# ------------------------------------------------------------- simulation


def _check_plan(model: DnnModelSpec, topology: PlatformTopology, plan: MappingPlan) -> None:
    if plan.model_name != model.name or len(plan.assignments) != len(model.layers):
        raise MappingError(f"plan for {plan.model_name!r} does not match model {model.name!r}")
    known = {c.id for c in topology.chiplets}
    for chiplet_ids in dict.fromkeys(a.chiplet_ids for a in plan.assignments):
        missing = set(chiplet_ids) - known
        if missing:
            raise MappingError(f"plan names chiplets absent from topology: {sorted(missing)}")
    if min(map(attrgetter("total_macs"), plan.assignments)) < 1:
        raise MappingError("assignment has no MACs")


def _combine(layer_results: list[LayerResult], total_bits: int) -> RunMetrics:
    # every float sum is a left fold from 0.0 in layer or category order (each energy
    # dict holds ENERGY_CATEGORIES in order), so no Python version's sum() moves it
    columns = zip(*[r.energy_j.values() for r in layer_results])
    breakdown = {k: reduce(add, column, 0.0) for k, column in zip(ENERGY_CATEGORIES, columns)}
    total_latency = reduce(add, map(attrgetter("layer_latency_s"), layer_results), 0.0)
    total_energy = reduce(add, breakdown.values(), 0.0)
    return RunMetrics(total_latency_s=total_latency, total_energy_j=total_energy,
                      energy_breakdown=breakdown, total_bits=total_bits,
                      avg_power_w=total_energy / total_latency if total_latency else 0.0,
                      epb_j_per_bit=total_energy / total_bits if total_bits else 0.0,
                      per_layer=tuple(layer_results))


def simulate_model(model: DnnModelSpec, topology: PlatformTopology, plan: MappingPlan,
                   params: DeviceParams, options: SimOptions | None = None) -> RunMetrics:
    """Run ``model`` as mapped by ``plan`` on ``topology``. Raises OverflowError
    when finite inputs give an infinite latency, energy or power."""
    options = options or SimOptions()
    _check_plan(model, topology, plan)
    tables = pricing_tables(topology, params)
    price = _INTERCONNECTS[topology.kind](topology, tables, options)
    overlap, mac_rate_hz, mac_costs = options.overlap, options.mac_rate_hz, tables.mac_costs
    zeros = dict.fromkeys(ENERGY_CATEGORIES, 0.0)
    results: list[LayerResult] = []

    for layer, traffic, assignment in zip(model.layers, model.traffic, plan.assignments):
        compute_s = compute_time(assignment, mac_rate_hz)
        read_s, write_s, overhead_s, bits_moved, joules, watts = price(traffic, assignment,
                                                                       compute_s)
        latency = (max(compute_s, read_s, write_s) if overlap
                   else compute_s + read_s + write_s) + overhead_s

        energy = {**zeros, **joules}
        for category, w in watts.items():
            energy[category] += w * latency
        pool = (assignment.total_macs, assignment.mac_type.vector_len)
        costs = mac_costs.get(pool)
        if costs is None:   # ring trim W of link and MAC pool, converter pJ per invocation
            total_macs, vector_len = pool
            costs = mac_costs[pool] = (
                tables.link_tuning_w + mr_tuning_power(total_macs * vector_len, params),
                params.dac_energy_pj * vector_len + params.adc_energy_pj)
        tuning_w, mac_pj = costs
        energy["tuning"] = tuning_w * latency
        energy["mac"] = assignment.invocations * mac_pj * 1e-12
        results.append(LayerResult(layer.index, compute_s, read_s, write_s, overhead_s,
                                   latency, energy, bits_moved))

    metrics = _combine(results, model.total_bits)
    totals = (metrics.total_latency_s, metrics.total_energy_j, metrics.avg_power_w)
    if not all(map(math.isfinite, totals)):
        raise OverflowError(f"{model.name} on {topology.kind} gives latency "
                            f"{totals[0]} s and energy {totals[1]} J")
    return metrics

