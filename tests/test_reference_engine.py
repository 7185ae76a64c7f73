"""The engine checked bit for bit against a from-scratch reference.

``reference`` prices every layer again from the topology, the DeviceParams
and the SimOptions, with no table or cache: the source power of every lit
route, the longest routes by a scan, each assigned chiplet's mesh hops and
the couplers a resize retunes, ``max(before, after)`` per changed chiplet.
It uses only the primitives the device and platform tests pin
(``source_mw``, ``required_laser_power``, ``electrical_hops`` and
``mr_tuning_power``), the topology the builder made, and from ``engine``
only the record types and ``ENERGY_CATEGORIES``. It keeps the engine's float
order: every sum is a left fold from 0.0, categories in
``ENERGY_CATEGORIES`` order.

The test draws platforms (grids up to 4x4, 1 to 3 memory chiplets, mixed
MAC types, some with a custom vector length, 1 to 64 wavelengths, random
losses and every option), runs the shipped and generated models in shuffled
order on one shared topology per kind, and asserts that
``repr(simulate_model(...)) == repr(reference(...))``.

On the same drawn platforms, a plan is held to its contract: it is priced
from its columns alone, so a ``map_model`` plan and its hand-built and
``replace`` copies price alike, one plan prices on two topologies and two
device records in turn as each pair alone would, and a plan keeps no
topology or table alive.
"""

import gc
import importlib.util
import math
import random
import weakref
from functools import cache, reduce
from operator import add
from pathlib import Path

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cpsim import build_topology, engine, map_model, replace, simulate_model, with_kind
from cpsim.config import ChipletConfig, PlatformSettings, SimConfig, SimOptions
from cpsim.devices import DeviceParams, mr_tuning_power, required_laser_power, source_mw
from cpsim.engine import ENERGY_CATEGORIES, LayerResult, RunMetrics
from cpsim.mapper import MappingPlan
from cpsim.platform import DEFAULT_MAC_TYPES, electrical_hops
from cpsim.workload import load_model, load_shipped_model

SHIPPED = ("lenet5", "resnet50", "densenet121", "vgg16", "mobilenetv2")
GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"


def fold(values) -> float:
    return reduce(add, values, 0.0)


def traffic(layer) -> tuple[int, int, int]:
    """Weight, input and output bits of one pass of ``layer``."""
    weights = (layer.kernel_h * layer.kernel_w * layer.in_channels + 1) * layer.out_channels
    return (weights * layer.weight_bitwidth,
            layer.in_h * layer.in_w * layer.in_channels * layer.activation_bitwidth,
            layer.out_h * layer.out_w * layer.out_channels * layer.activation_bitwidth)


def longest(routes):
    return max(routes, key=lambda r: r.path.length_mm)


def reference(model, topology, plan, params, options) -> RunMetrics:
    """``model`` run as ``plan`` maps it on ``topology``, every layer priced from scratch."""
    p, kind = topology.platform, topology.kind
    memory = [c.id for c in topology.memory_chiplets()]
    lit = {c.id: c.gateways for c in topology.chiplets}   # power-on: every gateway lit
    previous = ((), 0, 0)   # trailing mode's target before the first layer: none wanted
    link_w = mr_tuning_power(topology.total_mrs(), params)
    results = []
    for layer, k, invocations in zip(model.layers, plan.set_of, plan.invocations):
        weights, inputs, outputs = traffic(layer)
        ids, mac_type = plan.sets[k]
        macs = sum(topology.chiplet(c).macs for c in ids)   # the named chiplets' own MACs
        compute_s = -(-invocations // macs) / options.mac_rate_hz
        weight_bits = weights * options.weight_refetch_factor
        write_bits = float(outputs)
        overhead_s, joules, watts = 0.0, {}, {}
        if kind == "siph_interposer":
            gw_bw = p.n_wavelengths * p.link_rate_bps
            read_bits = weight_bits + inputs
            bits = read_bits + write_bits
            switched = 0
            if options.resipi_enabled:
                window = max(compute_s, options.epoch_s)
                target = (ids, math.ceil((inputs + (weight_bits + outputs) / len(ids))
                                         / window / gw_bw),
                          math.ceil(bits / window / len(memory) / gw_bw))
                if options.demand_mode == "trailing":
                    target, previous = previous, target
                wanted_ids, n, n_memory = target
                wanted = {c.id: n_memory if c.id in memory else n if c.id in wanted_ids else 0
                          for c in topology.chiplets}
                now = {c.id: max(1, min(wanted[c.id], c.gateways)) for c in topology.chiplets}
                switched = sum(max(lit[c], now[c]) for c in lit if lit[c] != now[c])
                if switched:
                    overhead_s = params.pcm_transition_s
                lit = now
            memory_bw = sum(lit[m] for m in memory) * gw_bw
            assigned_bw = sum(lit[c] for c in ids) * gw_bw
            read_route = longest(r for r in topology.routes if r.protocol == "SWMR")
            write_route = longest(r for r in topology.routes
                                  if r.protocol == "SWSR" and r.writer_chiplet in ids)
            overhead = options.gateway_overhead_cycles / p.gateway_freq_hz
            read_s = (read_bits / min(memory_bw, assigned_bw)
                      + read_route.path.length_mm / params.group_velocity_mm_per_s + overhead)
            write_s = (write_bits / min(assigned_bw, memory_bw)
                       + write_route.path.length_mm / params.group_velocity_mm_per_s + overhead)
            lit_mw = [source_mw(r.path, params) for r in topology.routes
                      if r.writer_index < lit[r.writer_chiplet]]
            joules = {"conversion": bits * (params.modulator_energy_pj_per_bit
                                            + params.filter_pd_energy_pj_per_bit) * 1e-12,
                      "gateway_elec": bits * params.gateway_elec_energy_pj_per_bit * 1e-12,
                      "controller": switched * options.pcmc_switch_energy_pj * 1e-12}
            watts = {"laser": required_laser_power(lit_mw, p.n_wavelengths, params)}
        elif kind == "elec_interposer":
            hops = [electrical_hops(memory[i % len(memory)], cid, topology)
                    for i, cid in enumerate(ids)]
            congestion = options.elec_congestion_factor if len(ids) > 1 else 1.0
            read_bits = weight_bits + inputs * len(ids)   # every chiplet gets its own input copy
            bits = read_bits + write_bits
            header_s = max(hops) * options.router_latency_cycles / p.noc_freq_hz
            link_bw = p.noc_width_bits * p.noc_freq_hz
            read_s = header_s + read_bits * congestion / link_bw
            write_s = header_s + write_bits * congestion / link_bw
            per_chiplet = (weight_bits + outputs) / len(ids) + inputs
            joules = {"electrical_noc": fold(per_chiplet * h for h in hops)
                      * p.noc_energy_pj_per_bit_hop * 1e-12}
            watts = {"electrical_noc": p.noc_router_static_w * (p.grid_rows * p.grid_cols)}
        else:
            read_bits = weight_bits + inputs
            bits = read_bits + write_bits
            read_s, write_s = read_bits / p.offchip_bw_bps, write_bits / p.offchip_bw_bps
            joules = {"electrical_noc": bits * p.offchip_energy_pj_per_bit * 1e-12}

        latency = (max(compute_s, read_s, write_s) if options.overlap
                   else compute_s + read_s + write_s) + overhead_s
        energy = dict.fromkeys(ENERGY_CATEGORIES, 0.0) | joules
        for category, w in watts.items():
            energy[category] += w * latency
        vector_len = mac_type.vector_len
        energy["tuning"] = (link_w + mr_tuning_power(macs * vector_len, params)) * latency
        energy["mac"] = invocations * (params.dac_energy_pj * vector_len
                                       + params.adc_energy_pj) * 1e-12
        results.append(LayerResult(layer.index, compute_s, read_s, write_s, overhead_s, latency,
                                   energy, bits))

    total_bits = sum(sum(traffic(layer)) for layer in model.layers)
    breakdown = {k: fold(r.energy_j[k] for r in results) for k in ENERGY_CATEGORIES}
    latency = fold(r.layer_latency_s for r in results)
    energy = fold(breakdown.values())
    return RunMetrics(latency, energy, breakdown, energy / latency if latency else 0.0,
                      total_bits, energy / total_bits if total_bits else 0.0, tuple(results))


# ---------------------------------------------------------------- drawing


@cache
def shipped(name):
    return load_shipped_model(name)


@cache
def generated(seed, n_layers):
    """A ``bench/gen.py`` model of ``n_layers`` layers."""
    spec = importlib.util.spec_from_file_location("bench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return load_model(gen.generate_model(random.Random(seed), f"gen{seed}", n_layers))


def floats(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def compute_chiplet(draw, cid):
    name = draw(st.sampled_from([*DEFAULT_MAC_TYPES, "conv_custom", "dense_custom"]))
    custom = name.endswith("_custom") or draw(st.booleans())
    per_gateway = draw(st.integers(1, 12))
    return ChipletConfig(cid, "compute", mac_type=name, macs=per_gateway * draw(st.integers(1, 6)),
                         macs_per_gateway=per_gateway,
                         vector_len=draw(st.integers(1, 128)) if custom else 0)


@st.composite
def platforms(draw) -> SimConfig:
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if rows * cols < 2:
        cols = 2
    n_memory = draw(st.integers(1, min(3, rows * cols - 1)))
    n_compute = draw(st.integers(1, rows * cols - n_memory))
    memory = [ChipletConfig(f"mem{k}", "memory", gateways=draw(st.integers(1, 6)))
              for k in range(n_memory)]
    compute = [draw(compute_chiplet(f"c{k}")) for k in range(n_compute)]
    platform = PlatformSettings(
        n_wavelengths=draw(st.integers(1, 64)), link_rate_bps=draw(floats(1e9, 5e10)),
        gateway_freq_hz=draw(floats(5e8, 5e9)), noc_width_bits=draw(st.integers(16, 512)),
        noc_freq_hz=draw(floats(5e8, 5e9)), interposer_side_mm=draw(floats(5.0, 50.0)),
        grid_rows=rows, grid_cols=cols, noc_energy_pj_per_bit_hop=draw(floats(0.0, 5.0)),
        noc_router_static_w=draw(floats(0.0, 2.0)), offchip_bw_bps=draw(floats(1e10, 1e12)),
        offchip_energy_pj_per_bit=draw(floats(0.0, 50.0)),
        monolithic_macs=draw(st.integers(1, 512)), monolithic_vector_len=draw(st.integers(1, 128)))
    # mixed roles in drawn order: the builder places memory first either way
    chiplets = draw(st.permutations(memory + compute))
    return SimConfig(platform, tuple(chiplets), DeviceParams(), SimOptions())


DEVICES = st.builds(
    DeviceParams, coupler_loss_db=floats(0.0, 3.0), propagation_loss_db_per_mm=floats(0.0, 1.0),
    mr_through_loss_db=floats(0.0, 0.1), mr_drop_loss_db=floats(0.0, 2.0),
    splitter_excess_db=floats(0.0, 0.5), pd_sensitivity_dbm=floats(-30.0, -10.0),
    laser_efficiency=floats(0.01, 1.0), mr_tuning_mw=floats(0.0, 2.0),
    modulator_energy_pj_per_bit=floats(0.0, 5.0), filter_pd_energy_pj_per_bit=floats(0.0, 5.0),
    gateway_elec_energy_pj_per_bit=floats(0.0, 5.0), dac_energy_pj=floats(0.0, 1.0),
    adc_energy_pj=floats(0.0, 5.0),
    pcm_transition_s=st.one_of(st.just(0.0), floats(0.0, 1e-4)),
    group_velocity_mm_per_s=floats(1e10, 3e11))

OPTIONS = st.builds(
    SimOptions, overlap=st.booleans(), resipi_enabled=st.booleans(), epoch_s=floats(1e-7, 1e-4),
    demand_mode=st.sampled_from(["upcoming", "trailing"]),
    weight_refetch_factor=floats(1.0, 4.0), mac_rate_hz=floats(1e8, 1e10),
    gateway_overhead_cycles=st.integers(0, 16), router_latency_cycles=st.integers(0, 8),
    elec_congestion_factor=floats(1.0, 4.0), pcmc_switch_energy_pj=floats(0.0, 5000.0))

MODELS = st.lists(st.tuples(st.integers(0, 50), st.integers(3, 40)), min_size=1, max_size=3).map(
    lambda drawn: [shipped(name) for name in SHIPPED] + [generated(*d) for d in drawn])


# not shrunk: an example runs hundreds of layers, and shrinking one mismatch took minutes;
# as many examples as the profile draws (tests/conftest.py): 20, or 300 with
# --hypothesis-profile=deep
@settings(deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(platforms(), st.lists(DEVICES, min_size=1, max_size=2),
       st.lists(OPTIONS, min_size=1, max_size=2), MODELS.flatmap(st.permutations))
def test_engine_matches_from_scratch_reference(cfg, devices, options, models):
    """Every model, run in shuffled order on one topology per kind with the
    device and option records taken in turn, gives the same metrics, to the
    last bit, as the reference engine."""
    for kind in ("siph", "elec", "mono"):
        topology = build_topology(with_kind(cfg, kind))
        for i, model in enumerate(models):
            args = (model, topology, map_model(model, topology),
                    devices[i % len(devices)], options[i % len(options)])
            assert repr(simulate_model(*args)) == repr(reference(*args))


@settings(deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(platforms(), DEVICES, OPTIONS, MODELS)
def test_a_mapped_plan_and_its_hand_built_and_replaced_copies_price_alike(cfg, params, options,
                                                                          models):
    """A mapped plan, a copy built by hand from its columns and a ``replace``
    copy are equal, print alike and price every model alike."""
    for kind in ("siph", "elec", "mono"):
        topology = build_topology(with_kind(cfg, kind))
        for model in models:
            plan = map_model(model, topology)
            copies = (MappingPlan(plan.model_name, plan.sets, plan.set_of, plan.invocations),
                      replace(plan))
            assert copies == (plan, plan) and {repr(c) for c in copies} == {repr(plan)}
            metrics = repr(simulate_model(model, topology, plan, params, options))
            for twin in copies:
                assert repr(simulate_model(model, topology, twin, params, options)) == metrics


@settings(deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(platforms(), DEVICES, OPTIONS, MODELS)
def test_a_totals_only_run_gives_the_full_runs_totals_to_the_last_bit(cfg, params, options,
                                                                      models):
    """``per_layer=False`` builds no layer record and returns the default run's
    metrics with ``per_layer=()``: every float and the breakdown dict equal,
    and the same repr, on every kind."""
    for kind in ("siph", "elec", "mono"):
        topology = build_topology(with_kind(cfg, kind))
        for model in models:
            plan = map_model(model, topology)
            full = simulate_model(model, topology, plan, params, options)
            totals = simulate_model(model, topology, plan, params, options, per_layer=False)
            assert len(full.per_layer) == len(model.layers) and totals.per_layer == ()
            assert totals == full._replace(per_layer=())
            assert totals.energy_breakdown == full.energy_breakdown
            assert repr(totals) == repr(full._replace(per_layer=()))


@settings(deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(platforms(), st.lists(DEVICES, min_size=2, max_size=2), OPTIONS,
       MODELS.flatmap(st.sampled_from))
def test_one_plan_on_two_topologies_and_two_device_records_in_turn(cfg, devices, options, model):
    """One plan priced on the siph and elec topologies of one config (whose
    compute chiplets are the same) with two DeviceParams, the pairs taken in
    turn, gives each pair the reference's metrics for it."""
    topologies = [build_topology(with_kind(cfg, kind)) for kind in ("siph", "elec")]
    plan = map_model(model, topologies[0])
    assert map_model(model, topologies[1]) == plan
    for t, d in ((0, 0), (1, 1), (0, 1), (1, 0)) * 2:
        args = (model, topologies[t], plan, devices[d], options)
        assert repr(simulate_model(*args)) == repr(reference(*args))


@settings(deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(platforms(), DEVICES, OPTIONS, MODELS.flatmap(st.sampled_from))
def test_a_plan_cache_keeps_no_topology_or_tables_alive(cfg, params, options, model):
    """With the cyclic collector off, a topology that priced a mapped plan and
    a hand-built one goes, with its tables, at its last reference, while both
    plans live on."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for kind in ("siph", "elec", "mono"):
            topology = build_topology(with_kind(cfg, kind))
            plan = map_model(model, topology)
            plans = (plan, MappingPlan(plan.model_name, plan.sets, plan.set_of, plan.invocations))
            for p in plans:
                simulate_model(model, topology, p, params, options)
            refs = [weakref.ref(topology), weakref.ref(engine.pricing_tables(topology, params))]
            del topology
            assert [ref() is None for ref in refs] == [True, True]
    finally:
        if enabled:
            gc.enable()
