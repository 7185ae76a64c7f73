"""End-to-end execution model.

Layers run strictly in order, and a run is priced column by column: one list
per quantity, one entry per layer, entry *i* of each plan column pricing layer
*i*. ``simulate_model`` reads the plan's columns (see ``mapper``), looks each
numbered chiplet set up in the pricing tables, which check it against the topology,
works out the compute-time column on the assigned MAC arrays, then calls the
platform's interconnect builder (photonic gateways, electrical mesh or
off-chip link) once for the read/write transfer time, reconfiguration stall
and bits moved of every layer, and the energy its lasers, conversions,
gateway electronics, controller, mesh or off-chip interface draw. From those
it works out the latency, MAC ring tuning and MAC energy columns, builds each
layer's record once when ``per_layer`` is true (``compare`` reads only the
totals and passes false) and folds the run's totals from the columns.

On the photonic interposer an epoch controller re-evaluates traffic before
every layer and retunes the phase-change couplers so only the gateways the
demand justifies stay lit; shrinking or growing that active set stalls the
pipeline for one phase-change transition and retunes the laser budget.

What a run works out from its topology and DeviceParams alone is kept in a
``PricingTables`` that the topology holds for the DeviceParams object it last
ran with, found by identity. Besides each route's source power, every table
(MAC pools, mesh hops, write flights, the controller's lit-count states, their
retunes and the lit counts per layer target) is a ``Memo`` declared with its
one rule; the interconnect builders and the controller only look entries up.
Every entry is a pure function of its key and the two objects, so no run's
output depends on which runs came before it. A plan's chiplet set that fails
the pools' checks is stored nowhere, so it fails on every run.

Per layer the engine does arithmetic and few calls. No ``max`` or ``min`` is
called per layer: the latency and the demand window are conditional
expressions making the builtin's own comparisons in its order, so a tie
keeps the first value as the builtin does, and a state's bandwidth per
chiplet set, its slower endpoint's, is a table entry. A chiplet
set's constants (its chiplet count, its write flight, its bandwidth in the
power-on state, its mesh hops) and its pool's MACs and MAC costs are worked out
once per run, in lists that each layer indexes by its set number, so with the
controller off no layer hashes its chiplet set. The controller is
consulted only on a change: a layer looks its target's lit counts up and
calls ``resize`` only when they differ from the controller's. Every float
total of a column is a ``reduce(add, ..., 0.0)`` left fold, never ``sum()``,
whose compensated addition in Python 3.12+ would move the last bits; one
layer's few mesh hops are folded with ``+=`` from 0.0 in hop order, the same
left fold without reduce's calls. A category with no nonzero entry, as one
the kind has no hardware for, totals 0.0 without a fold, which is what the
fold would give.

A single run is sequential and deterministic; identical inputs produce
bit-identical metrics.
"""

from __future__ import annotations

import math
import weakref
from functools import reduce
from itertools import repeat
from operator import add
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
    """What runs price from a topology and a DeviceParams alone: each lazy table is a ``Memo``
    declared here with its one rule, no entry changing once written. No rule holds the topology
    or tables, so both go with their last reference, nor does an entry hold a run's controller.
    The topology checked its chiplets; only ``pools`` raises, for a plan's set unfit for them."""

    def __init__(self, topology: PlatformTopology, params: DeviceParams) -> None:
        self.params = params
        self.memory_ids = memory_ids = [c.id for c in topology.memory_chiplets()]
        # interposer rings stay locked to the WDM grid whether or not their
        # gateway is lit; deactivation saves laser power, not trim power.
        # Other kinds have no interposer rings: 0.0 W
        link_w = mr_tuning_power(topology.total_mrs(), params)
        chiplets = {c.id: c for c in topology.chiplets}

        def pool(key):   # (chiplet ids, MAC type) -> (MACs, ring trim W of link and pool, pJ)
            ids, mac_type = key
            if not ids:
                raise MappingError("plan names the empty chiplet set ()")
            if missing := set(ids) - chiplets.keys():
                raise MappingError(f"plan names chiplets absent from topology: {sorted(missing)}")
            if len(set(ids)) < len(ids):
                raise MappingError(f"plan names chiplet set {ids!r}, which repeats a chiplet")
            if other := sorted(c for c in ids if chiplets[c].mac_type != mac_type):
                raise MappingError(f"plan names chiplet set {ids!r} as MAC type {mac_type.name!r} "
                                   f"of {mac_type.vector_len} lanes, which {other} are not")
            macs, lanes = sum(chiplets[c].macs for c in ids), mac_type.vector_len
            if macs < 1:
                raise MappingError(f"plan names chiplet set {ids!r} as MAC type "
                                   f"{mac_type.name!r}, whose chiplets have no MACs")
            return (macs, link_w + mr_tuning_power(macs * lanes, params),
                    params.dac_energy_pj * lanes + params.adc_energy_pj)
        self.pools = Memo(pool)
        if topology.kind == ELEC:
            mesh = weakref.proxy(topology)   # held strongly, the topology would be in a cycle
            # chiplet ids -> (each one's hops from its memory chiplet, the most)
            self.hops = Memo(lambda ids: (each := tuple(
                electrical_hops(memory_ids[i % len(memory_ids)], cid, mesh)
                for i, cid in enumerate(ids)), max(each)))
        if topology.kind != SIPH:
            return
        n_wavelengths = topology.platform.n_wavelengths
        self.gw_bw = gw_bw = gateway_peak_bandwidth(topology)
        self.gateways = gateways = {c.id: c.gateways for c in topology.chiplets}

        def lit_counts(wanted):   # the lit-count clamp: at least 1, at most all
            return tuple(max(1, min(wanted.get(cid, 0), n)) for cid, n in gateways.items())
        self.lit_counts = lit_counts
        # in topology order, so the laser sum keeps its float order
        routes = [(r.writer_chiplet, r.writer_index, source_mw(r.path, params))
                  for r in topology.routes]
        velocity = params.group_velocity_mm_per_s   # a flight: seconds on a longest route
        self.read_flight = max(r.path.length_mm for r in topology.routes
                               if r.protocol == SWMR) / velocity
        writes = [r for r in topology.routes if r.protocol == SWSR]
        self.write_flights = Memo(lambda ids: max(   # chiplet ids -> their write flight
            r.path.length_mm for r in writes if r.writer_chiplet in ids) / velocity)

        def state(counts):   # lit counts -> (active, laser W, bandwidth per chiplet set)
            active = dict(zip(gateways, counts))
            # every chiplet keeps gateway 0 lit, so some route is always driven
            lit_mw = [mw for cid, k, mw in routes if k < active[cid]]
            lit_memory = sum(active[m] for m in memory_ids)
            # the slower endpoint's; rounding is monotone, so the same float as min of products
            return active, required_laser_power(lit_mw, n_wavelengths, params), Memo(
                lambda ids: min(lit_memory, sum(active[c] for c in ids)) * gw_bw)
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
    keyed by lit counts; a controller holds only its state. ``resize`` is the
    one place the state changes; the engine calls it at power-on and then
    only for a layer whose lit counts differ from ``counts``, and reads ``laser_w``
    and ``bandwidths``, the state's bits/s per chiplet set through the lit gateways
    of its slower endpoint, memory or assigned, after each call."""

    def __init__(self, topology: PlatformTopology, params: DeviceParams) -> None:
        self._tables = pricing_tables(topology, params)
        self.counts = ()
        self.resize(tuple(self._tables.gateways.values()))   # power-on: every gateway lit

    def lit_counts(self, wanted: dict[str, int]) -> tuple[int, ...]:
        """The state for ``wanted`` gateways per chiplet, at least 1 and at most all."""
        return self._tables.lit_counts(wanted)

    def resize(self, counts: tuple[int, ...]) -> int:
        """Enter the state ``counts``; returns the couplers retuned, ``max(before, after)``
        per resized trunk: every lit tap's share changes and every tap going lit or dark flips."""
        old, tables = self.counts, self._tables
        self.counts = counts
        self.active, self.laser_w, self.bandwidths = tables.states[counts]
        return tables.retunes[old, counts]

    def couplers(self, chiplet_id: str) -> list[PcmcState]:
        """Coupler states along the chiplet's trunk: the trunk is split
        equally over its lit gateways, dark gateways pass it along."""
        lit, n = self.active[chiplet_id], self._tables.gateways[chiplet_id]
        return pcmc_chain_for_equal_split([k < lit for k in range(n)])


# ---------------------------------------------------------- interconnects
# One builder per platform kind prices a whole run's data movement from the
# model's traffic, the plan's distinct chiplet sets, each layer's set number
# and the compute-time column. It returns the per-layer columns read_s,
# write_s, overhead_s and bits_moved, and a function of the latency column
# giving the columns of the kind's own energy categories: laser, conversion,
# gateway_elec, controller and electrical_noc, a literal 0.0 per layer where
# the kind has no hardware.


def _photonic(topology: PlatformTopology, tables: PricingTables, options: SimOptions,
              traffic: tuple[TrafficVolume, ...], chiplet_sets: list[tuple[str, ...]],
              set_of: tuple[int, ...], compute: list[float]):
    """Photonic interposer: the epoch controller resizes the lit gateways
    before every layer; a resize stalls for one phase-change transition.
    A transfer is serialization at the slower endpoint, plus waveguide
    propagation and fixed store-and-forward gateway buffering. Serialization is
    ``devices.serialization_time``'s rule inline, ``bits / bw``, its lanes the lit gateways
    times the wavelengths: ``bw`` is lit * (wavelengths * rate), a product associated otherwise."""
    params = tables.params
    controller = EpochController(topology, params)
    layer_counts, ceil, pcm_s = tables.layer_counts, math.ceil, params.pcm_transition_s
    n_memory, gw_bw = len(tables.memory_ids), tables.gw_bw
    read_flight, write_flights = tables.read_flight, tables.write_flights
    laser_w, bandwidths_of = controller.laser_w, controller.bandwidths   # power-on
    # by set number: (the set, its chiplets, its write flight, its power-on bandwidth)
    sets = [(ids, len(ids), write_flights[ids], bandwidths_of[ids]) for ids in chiplet_sets]
    hold = options.gateway_overhead_cycles / topology.platform.gateway_freq_hz
    refetch, epoch_s = options.weight_refetch_factor, options.epoch_s
    resipi, trailing = options.resipi_enabled, options.demand_mode == "trailing"
    previous = ((), 0, 0)   # no history: the state with only gateway 0 of each chiplet lit
    rows = []

    for (weight, inputs, outputs), k, compute_s in zip(traffic, set_of, compute):
        ids, n_ids, write_flight, bw = sets[k]
        weight_bits = weight * refetch
        read_bits = weight_bits + inputs
        write_bits = float(outputs)
        switched = 0
        if resipi:
            # every assigned chiplet gets one demand share, every memory chiplet another
            window = epoch_s if epoch_s > compute_s else compute_s   # max(compute_s, epoch_s)
            target = (ids, ceil((inputs + (weight_bits + outputs) / n_ids) / window / gw_bw),
                      ceil((read_bits + write_bits) / window / n_memory / gw_bw))
            if trailing:
                target, previous = previous, target
            counts = layer_counts[target]
            if counts != controller.counts:
                # a changed count always retunes a coupler, so switched > 0 is a resize
                switched = controller.resize(counts)
                laser_w, bandwidths_of = controller.laser_w, controller.bandwidths
            bw = bandwidths_of[ids]
        rows.append(((read_bits / bw + read_flight) + hold, (write_bits / bw + write_flight) + hold,
                     pcm_s if switched else 0.0, read_bits + write_bits, laser_w, switched))

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
          traffic: tuple[TrafficVolume, ...], chiplet_sets: list[tuple[str, ...]],
          set_of: tuple[int, ...], compute: list[float]):
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
    links = list(map(link, chiplet_sets))   # by set number
    rows = []

    for (weight, inputs, outputs), k in zip(traffic, set_of):
        hops, n_ids, congestion, header_s = links[k]
        weight_bits = weight * refetch
        # broadcast is replicated on the mesh: every assigned chiplet
        # receives its own copy of the input tensor
        read_bits = weight_bits + inputs * n_ids
        write_bits = float(outputs)
        per_chiplet_bits = (weight_bits + outputs) / n_ids + inputs
        bit_hops = 0.0   # the left fold from 0.0 in hop order that reduce(add, ...) makes
        for h in hops:
            bit_hops += per_chiplet_bits * h
        rows.append((header_s + read_bits * congestion / link_bw,
                     header_s + write_bits * congestion / link_bw, read_bits + write_bits,
                     bit_hops * pj_per_bit_hop * 1e-12))

    read, write, bits, dynamic = zip(*rows)
    zeros = [0.0] * len(rows)
    return read, write, zeros, bits, lambda latency: (
        zeros, zeros, zeros, zeros, [d + static_w * t for d, t in zip(dynamic, latency)])


def _offchip(topology: PlatformTopology, tables: PricingTables, options: SimOptions,
             traffic: tuple[TrafficVolume, ...], chiplet_sets: list[tuple[str, ...]],
             set_of: tuple[int, ...], compute: list[float]):
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


def simulate_model(model: DnnModelSpec, topology: PlatformTopology, plan: MappingPlan,
                   params: DeviceParams, options: SimOptions | None = None,
                   per_layer: bool = True) -> RunMetrics:
    """Run ``model`` as mapped by ``plan`` on ``topology``; with ``per_layer`` false,
    no layer record is built and the same totals come with ``per_layer=()``.
    Raises OverflowError when finite inputs give an infinite latency, energy or power."""
    options = options or SimOptions()
    if plan.model_name != model.name or len(plan.set_of) != len(model.layers):
        raise MappingError(f"plan for {plan.model_name!r} does not match model {model.name!r}")
    sets, set_of, invocations = plan.sets, plan.set_of, plan.invocations   # pools check each set
    tables, mac_rate_hz = pricing_tables(topology, params), options.mac_rate_hz
    # by set number, each set checked in layer order: its MACs, ring trim W and converter pJ,
    # as lists: map calls a list's bound __getitem__ faster than a tuple's
    macs, trim_w, convert_pj = map(list, zip(*[tables.pools[key] for key in sets]))
    # the assigned pool retires one vector dot per MAC per cycle: cycles in integers, exact
    compute = [-(-i // m) / mac_rate_hz
               for i, m in zip(invocations, map(macs.__getitem__, set_of))]
    read, write, overhead, bits, own_energy = _INTERCONNECTS[topology.kind](
        topology, tables, options, model.traffic, [ids for ids, _ in sets], set_of, compute)
    columns = zip(compute, read, write, overhead)
    # max(c, r, w) as the builtin makes it: r > c, then w > the larger, so a tie keeps the first
    latency = ([((w if w > r else r) if r > c else (w if w > c else c)) + o
                for c, r, w, o in columns] if options.overlap
               else [c + r + w + o for c, r, w, o in columns])

    tuning = [w * t for w, t in zip(map(trim_w.__getitem__, set_of), latency)]
    mac = [i * pj * 1e-12 for i, pj in zip(invocations, map(convert_pj.__getitem__, set_of))]
    laser, conversion, gateway, control, noc = own_energy(latency)
    energy = (laser, tuning, conversion, mac, gateway, control, noc)   # ENERGY_CATEGORIES
    records = ()
    if per_layer:
        energies = [{"laser": la, "tuning": tu, "conversion": cv, "mac": mc, "gateway_elec": ge,
                     "controller": ct, "electrical_noc": en}
                    for la, tu, cv, mc, ge, ct, en in zip(*energy)]
        # tuple.__new__ makes each record from its row with no Python-level call
        records = tuple(map(tuple.__new__, repeat(LayerResult), zip(
            [layer.index for layer in model.layers], compute, read, write, overhead, latency,
            energies, bits)))

    # every float sum is a left fold from 0.0 in layer or category order,
    # so no Python version's sum() moves it; a column of zeros (a category
    # the kind has no hardware for) folds to 0.0, so it is not folded
    breakdown = {k: reduce(add, column, 0.0) if any(column) else 0.0
                 for k, column in zip(ENERGY_CATEGORIES, energy)}
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
                      per_layer=records)
