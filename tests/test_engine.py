import gc
import hashlib
import importlib.util
import math
import random
import weakref
from functools import reduce
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsim import devices, engine, replace, workload
from cpsim.config import with_kind
from cpsim.devices import (CRYSTALLINE, DeviceParams, OpticalPath, path_insertion_loss,
                           pcmc_chain_for_equal_split, required_laser_power, source_mw)
from cpsim.engine import EpochController, simulate_model
from cpsim.mapper import LayerAssignment, MappingError, MappingPlan, map_model
from cpsim.platform import (DEFAULT_MAC_TYPES, build_topology, default_platform,
                            gateway_peak_bandwidth)
from cpsim.workload import DnnModelSpec, LayerSpec, layer_traffic, load_model, load_shipped_model


def fc_model(fin=100, fout=10, weight_bitwidth=8, activation_bitwidth=8):
    layer = LayerSpec(0, "fc", 1, 1, fin, fout, 1, 1, 1, 1, 1, weight_bitwidth,
                      activation_bitwidth)
    return DnnModelSpec("onefc", (layer,), layer.params())


def assignment(invocations, macs, vlen=100, ids=("dense0",)):
    mac = next(t for t in DEFAULT_MAC_TYPES.values() if t.vector_len == vlen)
    return LayerAssignment(0, mac, ids, macs, invocations)


def single_layer(variant, placed, model=None, **options):
    """The one LayerResult of ``model`` (fc 100->10 by default) on the platform
    of ``variant``, placed as the LayerAssignment ``placed`` says."""
    model = model or fc_model()
    metrics = simulate_model(model, build_topology(variant), MappingPlan(model.name, (placed,)),
                             variant.devices, replace(variant.options, **options))
    [layer] = metrics.per_layer
    return layer


# ------------------------------------------------------------ compute time


def test_compute_time_examples(cfg):
    """ceil(invocations / MACs) cycles at the MAC rate."""
    def compute_s(invocations, macs, vlen=100):
        return single_layer(cfg, assignment(invocations, macs, vlen), mac_rate_hz=2e9).compute_s

    assert compute_s(10, 8) == pytest.approx(1e-9, rel=1e-12)
    assert compute_s(0, 8) == 0.0
    assert compute_s(132, 132, vlen=9) == pytest.approx(0.5e-9, rel=1e-12)


def test_compute_cycles_are_exact_above_float_precision(cfg):
    """The cycle count is an exact integer ceiling: 3 * 2**53 + 1 dot products
    on the 128 monolithic MACs take 3 * 2**46 + 1 cycles, and a float quotient
    rounds the last, partial cycle away."""
    layer = LayerSpec(0, "fc", 1, 1, 1, 3 * 2**53 + 1, 1, 1, 1, 1)
    model = DnnModelSpec("wide", (layer,), layer.params())
    mono = build_topology(with_kind(cfg, "mono"))
    [result] = simulate_model(model, mono, map_model(model, mono), cfg.devices,
                              cfg.options).per_layer
    rate = cfg.options.mac_rate_hz
    assert cfg.platform.monolithic_macs == 128
    assert result.compute_s == (3 * 2**46 + 1) / rate == 211106232532993 / rate
    assert math.ceil((3 * 2**53 + 1) / 128) == 3 * 2**46   # what a float quotient gives


# ---------------------------------------------------------- transfer times
# fc 100->950 at 8-bit weights and 4-bit activations reads 767,600 + 400 bits


def test_photonic_transfer_example(cfg):
    """768,000 bits read through one lit gateway at each end (768 Gb/s) over
    the 18.4 mm broadcast route, plus 4 buffering cycles at 2 GHz."""
    layer = single_layer(cfg, assignment(1, 4), fc_model(100, 950, 8, 4))
    assert layer.read_s == pytest.approx(1e-6 + 18.4 / 7.5e10 + 2e-9, rel=1e-12)
    assert layer.read_s == pytest.approx(1.0022453e-6, rel=1e-6)


def test_photonic_transfer_overhead_only(cfg):
    """At a line rate that makes serialization vanish, a transfer costs its
    propagation and buffering alone."""
    fast = replace(cfg, platform=replace(cfg.platform, link_rate_bps=1e300))
    layer = single_layer(fast, assignment(1, 4), fc_model(100, 950, 8, 4))
    assert layer.read_s == pytest.approx(2.2453333e-9, rel=1e-6)


def test_photonic_transfer_min_bandwidth_rule(cfg):
    """Serialization runs at the slower endpoint: with every gateway lit, a
    memory chiplet with half the gateways doubles it, and a second assigned
    chiplet, which widens only the other end, leaves it as it is."""
    narrow = replace(cfg, chiplets=tuple(replace(c, gateways=2) if c.role == "memory" else c
                                         for c in cfg.chiplets))
    model = fc_model(1000, 1000)

    def serialization(variant, ids=("dense0",)):
        topo = build_topology(variant)
        fixed = (max(r.path.length_mm for r in topo.routes if r.protocol == "SWMR")
                 / variant.devices.group_velocity_mm_per_s + 4 / 2e9)
        layer = single_layer(variant, assignment(1, 4, ids=ids), model, resipi_enabled=False)
        return layer.read_s - fixed

    full = serialization(cfg)
    [traffic] = model.traffic   # 4 lit gateways of 768 Gb/s at each end
    assert full == pytest.approx((traffic.weight_bits + traffic.input_bits) / 4 / 768e9, rel=1e-6)
    assert serialization(narrow) == pytest.approx(2 * full, rel=1e-9)
    assert serialization(cfg, ("dense0", "dense1")) == pytest.approx(full, rel=1e-9)


def test_electrical_transfer_examples(cfg):
    """3 router cycles at 2 GHz per hop from the memory chiplet, the local
    port included (2 hops to dense0 and dense1, 3 to conv3a), then 128-bit
    links at 2 GHz; two chiplets contend for the memory node, which doubles
    the serialization."""
    variant = with_kind(cfg, "elec_interposer")

    def write_s(*ids):   # fc 100->32 writes 256 bits
        return single_layer(variant, assignment(1, 4, ids=ids), fc_model(100, 32)).write_s

    assert write_s("dense0") == pytest.approx(3e-9 + 1e-9, rel=1e-12)
    assert write_s("conv3a") == pytest.approx(4.5e-9 + 1e-9, rel=1e-12)
    assert write_s("dense0", "dense1") == pytest.approx(3e-9 + 2e-9, rel=1e-12)


# ------------------------------------------------------- epoch controller


def writer_index(topo):
    """Writer gateway id -> (chiplet id, index among the chiplet's gateways)."""
    return {gw: (c.id, k) for c in topo.chiplets for k, gw in enumerate(c.gateway_ids())}


def carry(controller, topo, demand_bps):
    """Resize to carry a demand in bits/s per chiplet, as the engine does: a
    chiplet's wanted count is its demand over one gateway's peak bandwidth,
    rounded up. Returns the couplers retuned."""
    gw_bw = gateway_peak_bandwidth(topo)
    return controller.resize(controller.lit_counts(
        {cid: math.ceil(d / gw_bw) for cid, d in demand_bps.items()}))


def test_controller_zero_demand_floors_at_one(cfg):
    topo = default_platform()
    controller = EpochController(topo, cfg.devices)
    assert carry(controller, topo, {}) > 0
    assert all(v == 1 for v in controller.active.values())


def test_controller_clamp_arithmetic(cfg):
    topo = default_platform()
    controller = EpochController(topo, cfg.devices)
    carry(controller, topo, {"conv3a": 1.6e12})
    assert controller.active["conv3a"] == 3  # ceil(1.6e12 / 768e9)
    carry(controller, topo, {"conv3a": 1e13})
    assert controller.active["conv3a"] == 4  # clamped at the gateway count


def test_controller_monotone_in_demand(cfg):
    topo = default_platform()
    controller = EpochController(topo, cfg.devices)
    rng = random.Random(17)
    for _ in range(50):
        low = {c.id: rng.uniform(0, 3e12) for c in topo.chiplets}
        high = {cid: v * rng.uniform(1.0, 3.0) for cid, v in low.items()}
        carry(controller, topo, low)
        active_low = dict(controller.active)
        carry(controller, topo, high)
        for cid in low:
            assert controller.active[cid] >= active_low[cid]
            assert 1 <= active_low[cid] <= topo.chiplet(cid).gateways


def test_controller_laser_audit_and_pcmc_states(cfg):
    topo = default_platform()
    controller = EpochController(topo, cfg.devices)
    writer = writer_index(topo)
    rng = random.Random(23)
    for _ in range(25):
        demand = {c.id: rng.uniform(0, 4e12) for c in topo.chiplets}
        carry(controller, topo, demand)
        lit_paths = []
        for route in topo.routes:
            chiplet_id, k = writer[route.writer_gateway]
            if k < controller.active[chiplet_id]:
                lit_paths.append(route.path)
            else:
                assert controller.couplers(chiplet_id)[k].phase == CRYSTALLINE
        expected = required_laser_power([source_mw(p, cfg.devices) for p in lit_paths],
                                        topo.platform.n_wavelengths, cfg.devices)
        assert controller.laser_w == pytest.approx(expected, rel=1e-12)


def test_reconfiguration_count_only_moves_on_change(cfg):
    topo = default_platform()
    controller = EpochController(topo, cfg.devices)
    switched = carry(controller, topo, {})
    active, laser_w = dict(controller.active), controller.laser_w
    switched_again = carry(controller, topo, {})
    assert switched > 0 and switched_again == 0
    assert controller.active == active and controller.laser_w == laser_w



def equal_split(n_gateways, lit):
    return pcmc_chain_for_equal_split([k < lit for k in range(n_gateways)])


# demand per chiplet in units of one gateway's peak bandwidth; whole numbers
# land on the ceil boundaries, "ghost" is a chiplet the topology lacks
DEMAND_SEQUENCES = st.lists(
    st.dictionaries(st.sampled_from(["mem0", "dense0", "dense1", "conv7a", "conv5a", "conv5b",
                                     "conv3a", "conv3b", "conv3c", "ghost"]),
                    st.one_of(st.integers(0, 6), st.floats(0.0, 6.0))),
    min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(DEMAND_SEQUENCES)
def test_controller_matches_from_scratch_reference(demands):
    """Every step agrees with a reference that re-derives the lit counts, both
    coupler chains of every chiplet and the laser power without any cache."""
    topo = default_platform()
    params = DeviceParams()
    gw_bw = gateway_peak_bandwidth(topo)
    writer = writer_index(topo)
    controller = EpochController(topo, params)
    lit = {c.id: c.gateways for c in topo.chiplets}
    for units in demands:
        demand = {cid: u * gw_bw for cid, u in units.items()}
        expected = {c.id: max(1, min(math.ceil(demand.get(c.id, 0.0) / gw_bw), c.gateways))
                    for c in topo.chiplets}
        retuned = sum(a != b for c in topo.chiplets
                      for a, b in zip(equal_split(c.gateways, lit[c.id]),
                                      equal_split(c.gateways, expected[c.id])))
        paths = [r.path for r in topo.routes
                 if writer[r.writer_gateway][1] < expected[writer[r.writer_gateway][0]]]
        switched = carry(controller, topo, demand)
        assert controller.active == expected
        assert list(controller.active) == [c.id for c in topo.chiplets]
        assert controller.laser_w == required_laser_power([source_mw(p, params) for p in paths],
                                                          topo.platform.n_wavelengths, params)
        assert switched == retuned
        assert (switched > 0) == (expected != lit)
        for c in topo.chiplets:
            assert controller.couplers(c.id) == equal_split(c.gateways, expected[c.id])
        lit = expected


def test_retune_count_closed_form():
    """The controller counts the couplers a resize retunes as max(before,
    after); that is exactly how many settings differ between the two chains."""
    for n in range(1, 13):
        for before in range(n + 1):
            for after in range(n + 1):
                differ = sum(a != b for a, b in zip(equal_split(n, before),
                                                    equal_split(n, after)))
                assert differ == (max(before, after) if before != after else 0)


GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
# sha256 of repr() of the runs below, recorded before the engine's per-MAC-type
# and per-controller-state work left its layer loop; a moved float changes it
GENERATED_RUNS_SHA256 = "a1d7151fdbd3f7ebb31a0fe7c1a01ce1d67cc0ccb3bee96517c6fffea48792c9"
# the same for demand_mode: trailing on siph, recorded before the controller
# became a table of lit-count states
TRAILING_RUNS_SHA256 = "eb3d15f5f5a5b0089fab59855aa172305acd43485543ad3d43bc9bb39a3adaec"


def generated_models(n=4):
    """The first ``n`` seed-1 synthetic models of the engine benchmark."""
    spec = importlib.util.spec_from_file_location("bench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return [load_model(text) for text in gen.generate(1)[:n]]


def test_generated_models_are_bit_identical(cfg):
    """Four seeded synthetic models on every platform, with and without the
    controller and overlap; they resize the controller far more often than the
    shipped models, whose outputs the goldens pin."""
    models = generated_models()
    runs = []
    for static in (False, True):
        for kind in ("siph_interposer", "elec_interposer", "monolithic"):
            variant = with_kind(cfg, kind)
            topology = build_topology(variant)
            options = variant.options
            if static:
                options = replace(options, resipi_enabled=False, overlap=False)
            runs += [simulate_model(m, topology, map_model(m, topology), variant.devices, options)
                     for m in models]
    stalls = sum(r.overhead_s > 0 for m in runs[:len(models)] for r in m.per_layer)
    assert stalls == 88   # of the 320 siph layers with the controller on
    assert hashlib.sha256(repr(runs).encode()).hexdigest() == GENERATED_RUNS_SHA256


def test_generated_models_trailing_mode_is_bit_identical(cfg):
    """Trailing demand mode resizes to the previous layer's target, and to the
    all-ones state before the first layer."""
    variant = with_kind(cfg, "siph_interposer")
    topology = build_topology(variant)
    options = replace(variant.options, demand_mode="trailing")
    runs = [simulate_model(m, topology, map_model(m, topology), variant.devices, options)
            for m in generated_models()]
    assert sum(r.overhead_s > 0 for m in runs for r in m.per_layer) == 91
    assert hashlib.sha256(repr(runs).encode()).hexdigest() == TRAILING_RUNS_SHA256


def test_state_table_keeps_what_it_built(cfg, monkeypatch):
    """The controller solves the laser power of each lit-count state once per
    (topology, params) objects, whether or not a run leaves and comes back and
    however many runs and controllers use them, and a return finds the same
    laser power and bandwidths; a resize retunes max(before, after) couplers
    per changed chiplet in either direction."""
    laser_calls, states = [], set()

    def counted(*args):
        laser_calls.append(args)
        return required_laser_power(*args)

    class Recording(EpochController):
        def resize(self, counts):
            states.add(counts)
            return super().resize(counts)

    monkeypatch.setattr(engine, "required_laser_power", counted)
    monkeypatch.setattr(engine, "EpochController", Recording)
    topo = default_platform()
    model = generated_models(1)[0]
    metrics = simulate_model(model, topo, map_model(model, topo), cfg.devices, cfg.options)
    resizes = sum(r.overhead_s > 0 for r in metrics.per_layer)
    assert len(laser_calls) == len(states) and 2 < len(states) < resizes
    assert simulate_model(model, topo, map_model(model, topo), cfg.devices, cfg.options) == metrics
    assert len(laser_calls) == len(states)   # the second run solves nothing

    laser_calls.clear()
    topo = default_platform()   # a new topology object: its own tables
    controller = EpochController(topo, cfg.devices)
    full, ids = dict(controller.active), ("conv3a", "conv3b")
    carry(controller, topo, {"conv3a": 2e12, "dense0": 1e12})
    mixed = dict(controller.active)
    seen = (controller.laser_w, controller.bandwidths(ids))
    retunes = sum(max(full[c], mixed[c]) for c in full if full[c] != mixed[c])
    assert full != mixed and retunes > 0
    for _ in range(3):
        assert controller.resize(tuple(full.values())) == retunes
        assert controller.resize(tuple(mixed.values())) == retunes
        assert controller.active == mixed
        assert (controller.laser_w, controller.bandwidths(ids)) == seen
    assert len(laser_calls) == 2   # power-on and the mixed state, once each
    again = EpochController(topo, cfg.devices)
    assert again.resize(tuple(mixed.values())) == retunes
    assert (again.laser_w, again.bandwidths(ids)) == seen
    assert len(laser_calls) == 2   # a second controller on the same objects solves nothing


def test_sweep_prices_each_path_and_state_once(cfg, monkeypatch):
    """Over a sweep of several models on one topology, each route's path loss
    is priced once and each distinct lit-count state's laser power is solved
    once, for the whole sweep."""
    losses, laser_calls, states = [], [], set()

    def counted_loss(path, params):
        losses.append(path)
        return path_insertion_loss(path, params)

    def counted_laser(*args):
        laser_calls.append(args)
        return required_laser_power(*args)

    class Recording(EpochController):
        def resize(self, counts):
            states.add(counts)
            return super().resize(counts)

    monkeypatch.setattr(devices, "path_insertion_loss", counted_loss)
    monkeypatch.setattr(engine, "required_laser_power", counted_laser)
    monkeypatch.setattr(engine, "EpochController", Recording)
    topo = default_platform()
    runs = [simulate_model(m, topo, map_model(m, topo), cfg.devices, cfg.options)
            for m in generated_models(5)]
    assert losses == [r.path for r in topo.routes]
    assert len(laser_calls) == len(states)
    assert sum(r.overhead_s > 0 for m in runs for r in m.per_layer) > len(states)


@pytest.mark.parametrize("kind, resipi, mode", [("siph", True, "upcoming"),
                                                ("siph", False, "upcoming"),
                                                ("siph", True, "trailing"),
                                                ("elec", True, "upcoming")])
def test_a_run_does_not_depend_on_the_runs_before_it(cfg, kind, resipi, mode):
    """A model's metrics are the same run alone on a new topology, run after
    other models on a shared one, and run on an equal but distinct topology
    and DeviceParams: the shared tables hold nothing a run's history shapes."""
    variant = with_kind(cfg, kind)
    options = replace(variant.options, resipi_enabled=resipi, demand_mode=mode)
    *others, model = generated_models(4)

    def run(topology, params):
        plan = map_model(model, topology)
        return repr(simulate_model(model, topology, plan, params, options))

    alone = run(build_topology(variant), variant.devices)
    shared = build_topology(variant)
    for other in others:
        simulate_model(other, shared, map_model(other, shared), variant.devices, options)
    after = run(shared, variant.devices)
    twin, twin_params = build_topology(with_kind(cfg, kind)), replace(variant.devices)
    assert twin == shared and twin is not shared
    assert twin_params == variant.devices and twin_params is not variant.devices
    assert alone == after == run(twin, twin_params)


def test_alternating_device_params_each_get_their_own_laser_power(cfg):
    """One topology run with two DeviceParams objects in turn gives each the
    laser power and metrics it gets on a topology of its own."""
    topo = default_platform()
    model = generated_models(1)[0]
    plan = map_model(model, topo)
    lossy = replace(cfg.devices, coupler_loss_db=2.0)
    alone = {id(p): simulate_model(model, default_platform(), plan, p, cfg.options)
             for p in (cfg.devices, lossy)}
    assert alone[id(cfg.devices)] != alone[id(lossy)]
    for _ in range(2):
        for params in (cfg.devices, lossy):
            assert repr(simulate_model(model, topo, plan, params, cfg.options)) == repr(
                alone[id(params)])
            # power-on lights every gateway, so every route is driven
            assert EpochController(topo, params).laser_w == required_laser_power(
                [source_mw(r.path, params) for r in topo.routes], topo.platform.n_wavelengths,
                params)


@pytest.mark.parametrize("kind", ["siph", "elec", "mono"])
def test_a_topology_and_its_tables_die_with_their_last_reference(cfg, kind):
    """The pricing tables and what fills them hold no strong reference back to
    their topology or to themselves, so with the cyclic collector off,
    dropping a topology that has run frees it and its tables at once."""
    variant = with_kind(cfg, kind)
    model = load_shipped_model("lenet5")
    enabled = gc.isenabled()
    gc.disable()
    try:
        topology = build_topology(variant)
        simulate_model(model, topology, map_model(model, topology), variant.devices,
                       variant.options)
        refs = [weakref.ref(topology),
                weakref.ref(engine.pricing_tables(topology, variant.devices))]
        del topology
        assert [ref() is None for ref in refs] == [True, True]
    finally:
        if enabled:
            gc.enable()

# -------------------------------------------------- single-layer fc traces


def test_photonic_trace_single_fc(cfg):
    """Hand-composed expectation for one fc 100->10 layer at bw 8 on the
    default platform: read 8,880 bits, write 80 bits, first-epoch stall."""
    topo = default_platform()
    model = fc_model()
    plan = map_model(model, topo)
    metrics = simulate_model(model, topo, plan, cfg.devices, cfg.options)
    [layer] = metrics.per_layer

    assert layer.compute_s == pytest.approx(2 / 5e9, rel=1e-12)       # ceil(10/8) cycles
    read_expected = 8_880 / 768e9 + 18.4 / 7.5e10 + 4 / 2e9
    write_expected = 80 / 768e9 + 10.4 / 7.5e10 + 4 / 2e9
    assert layer.read_s == pytest.approx(read_expected, rel=1e-12)
    assert layer.write_s == pytest.approx(write_expected, rel=1e-12)
    assert layer.overhead_s == pytest.approx(cfg.devices.pcm_transition_s, rel=1e-12)
    assert layer.layer_latency_s == pytest.approx(read_expected + 10e-6, rel=1e-12)
    assert layer.bits_moved == 8_960
    assert metrics.total_bits == 8_960

    # laser: one lit gateway per chiplet. SWSR trunk lengths by placement;
    # the SWMR broadcast reaches the far corners (18.4 mm, fanout 32).
    swsr_lengths = [10.4, 10.4, 10.4, 10.4, 18.4, 18.4, 18.4, 18.4]
    paths = [OpticalPath(l, 64, 1, 1, 1) for l in swsr_lengths]
    paths.append(OpticalPath(18.4, 64, 1, 32, 1))
    laser_w = required_laser_power([source_mw(p, cfg.devices) for p in paths], 64, cfg.devices)
    assert layer.energy_j["laser"] == pytest.approx(laser_w * layer.layer_latency_s, rel=1e-12)

    tuning_w = (6_400 + 8 * 100) * 0.5e-3  # interposer rows + lit dense MAC rings
    assert layer.energy_j["tuning"] == pytest.approx(tuning_w * layer.layer_latency_s, rel=1e-12)
    assert layer.energy_j["conversion"] == pytest.approx(8_960 * 2e-12, rel=1e-12)
    assert layer.energy_j["gateway_elec"] == pytest.approx(8_960 * 2e-12, rel=1e-12)
    assert layer.energy_j["mac"] == pytest.approx(10 * (0.3 * 100 + 1) * 1e-12, rel=1e-12)
    # every chiplet's chain retunes when 4 active gateways drop to 1
    assert layer.energy_j["controller"] == pytest.approx(36 * 1000e-12, rel=1e-12)
    assert layer.energy_j["electrical_noc"] == 0.0


def test_monolithic_trace_single_fc(cfg):
    topo, model = build_topology(with_kind(cfg, "mono")), fc_model()
    metrics = simulate_model(model, topo, map_model(model, topo), cfg.devices, cfg.options)
    [layer] = metrics.per_layer
    # chunks = ceil(100/25) = 4, invocations = 40, one 128-wide cycle
    assert layer.compute_s == pytest.approx(1 / 5e9, rel=1e-12)
    assert layer.read_s == pytest.approx(8_880 / 256e9, rel=1e-12)
    assert layer.write_s == pytest.approx(80 / 256e9, rel=1e-12)
    assert layer.overhead_s == 0.0
    assert layer.layer_latency_s == pytest.approx(8_880 / 256e9, rel=1e-12)
    assert layer.energy_j["electrical_noc"] == pytest.approx(8_960 * 15e-12, rel=1e-12)
    assert layer.energy_j["laser"] == 0.0


def test_electrical_trace_single_fc(cfg):
    variant = with_kind(cfg, "elec_interposer")
    topo = build_topology(variant)
    model = fc_model()
    plan = map_model(model, topo)
    metrics = simulate_model(model, topo, plan, variant.devices, variant.options)
    [layer] = metrics.per_layer
    # inputs are replicated per assigned chiplet: 8,080 + 2*800 bits in
    read_expected = 2 * 3 / 2e9 + 9_680 * 2.0 / 256e9
    assert layer.read_s == pytest.approx(read_expected, rel=1e-12)
    assert layer.bits_moved == 9_760
    assert layer.energy_j["laser"] == 0.0
    noc_dynamic = 2 * ((8_080 + 80) / 2 + 800) * 2 * 1e-12  # two chiplets, two hops each
    static = 9 * 0.5 * layer.layer_latency_s
    assert layer.energy_j["electrical_noc"] == pytest.approx(noc_dynamic + static, rel=1e-12)


# -------------------------------------------------------------- properties


def test_energy_identities_hold_for_every_run(sweep):
    for metrics in sweep.values():
        assert metrics.avg_power_w * metrics.total_latency_s == pytest.approx(
            metrics.total_energy_j, rel=1e-9)
        assert metrics.epb_j_per_bit * metrics.total_bits == pytest.approx(
            metrics.total_energy_j, rel=1e-9)
        assert sum(r.layer_latency_s for r in metrics.per_layer) == pytest.approx(
            metrics.total_latency_s, rel=1e-12)
        for r in metrics.per_layer:
            assert r.layer_latency_s >= max(r.compute_s, r.read_s, r.write_s) - 1e-18
            assert all(v >= 0.0 for v in r.energy_j.values())



def test_totals_are_left_folds_of_layers(sweep):
    """Every float total is added from 0.0 in layer (then category) order, so
    it does not depend on the compensated float sum() of Python 3.12+."""
    for metrics in sweep.values():
        layers = metrics.per_layer
        assert metrics.total_latency_s == reduce(add, [r.layer_latency_s for r in layers], 0.0)
        for category, joules in metrics.energy_breakdown.items():
            assert joules == reduce(add, [r.energy_j[category] for r in layers], 0.0)
        assert metrics.total_energy_j == reduce(add, metrics.energy_breakdown.values(), 0.0)
        for r in layers:   # so each category's column is a left fold in one order
            assert tuple(r.energy_j) == engine.ENERGY_CATEGORIES


def test_total_bits_is_every_tensor_moved_once(sweep):
    for (name, _), metrics in sweep.items():
        layers = load_shipped_model(name).layers
        assert metrics.total_bits == sum(layer_traffic(layer).total_bits for layer in layers)
    assert len(sweep) == 15


def test_traffic_is_worked_out_once_per_model(cfg, monkeypatch):
    """A model's traffic is its own: runs on every platform price each layer's
    traffic once between them, however the engine reaches layer_traffic."""
    calls = []

    def counted(layer):
        calls.append(layer.index)
        return layer_traffic(layer)

    monkeypatch.setattr(workload, "layer_traffic", counted)
    monkeypatch.setattr(engine, "layer_traffic", counted)
    model = load_shipped_model("lenet5")
    for kind in ("siph_interposer", "elec_interposer", "monolithic"):
        variant = with_kind(cfg, kind)
        topology = build_topology(variant)
        metrics = simulate_model(model, topology, map_model(model, topology), variant.devices,
                                 variant.options)
        assert metrics.total_bits == 587_008
    assert calls == [layer.index for layer in model.layers]


def test_overflowing_run_raises_rather_than_returning_infinities(cfg):
    """Finite options whose products leave the float range fail the run
    itself, so a library caller never gets an infinite latency or energy."""
    topo = default_platform()
    model = load_shipped_model("lenet5")
    with pytest.raises(OverflowError, match="lenet5"):
        simulate_model(model, topo, map_model(model, topo), cfg.devices,
                       replace(cfg.options, mac_rate_hz=5e-324))


ABSENT = {"siph_interposer": ("electrical_noc",),
          "elec_interposer": ("laser", "conversion", "gateway_elec", "controller"),
          "monolithic": ("laser", "conversion", "gateway_elec", "controller")}


@pytest.mark.parametrize("kind", sorted(ABSENT))
def test_energy_rows_hold_every_category_and_zero_for_absent_hardware(sweep, cfg, kind):
    """Each layer's energy dict lists ENERGY_CATEGORIES in order; a category
    the kind has no hardware for is exactly 0.0 on every layer, never a
    product with the latency, so an infinite latency still reads as an
    infinite energy rather than nan."""
    for (_, run_kind), metrics in sweep.items():
        if run_kind == kind:
            for r in metrics.per_layer:
                assert tuple(r.energy_j) == engine.ENERGY_CATEGORIES
                assert [r.energy_j[k] for k in ABSENT[kind]] == [0.0] * len(ABSENT[kind])
                assert all(math.copysign(1.0, r.energy_j[k]) == 1.0 for k in ABSENT[kind])
    variant = with_kind(cfg, kind)
    topo, model = build_topology(variant), load_shipped_model("lenet5")
    with pytest.raises(OverflowError, match=r"gives latency inf s and energy inf J"):
        simulate_model(model, topo, map_model(model, topo), variant.devices,
                       replace(variant.options, mac_rate_hz=5e-324))


def test_bit_identical_reruns(cfg):
    topo = default_platform()
    model = load_shipped_model("densenet121")
    plan = map_model(model, topo)
    first = simulate_model(model, topo, plan, cfg.devices, cfg.options)
    second = simulate_model(model, topo, plan, cfg.devices, cfg.options)
    assert first == second


def test_siph_beats_elec_on_large_models(sweep):
    for name in ("resnet50", "densenet121", "vgg16", "mobilenetv2"):
        assert (sweep[(name, "siph_interposer")].total_latency_s
                < sweep[(name, "elec_interposer")].total_latency_s)


def test_monolithic_slower_than_siph_on_vgg16(sweep):
    assert (sweep[("vgg16", "monolithic")].total_latency_s
            > sweep[("vgg16", "siph_interposer")].total_latency_s)


def test_resipi_disabled_is_never_slower_and_burns_more_idle_laser(cfg):
    topo = default_platform()
    layers = (
        LayerSpec(0, "conv", 3, 3, 8, 16, 8, 8, 8, 8),
        LayerSpec(1, "fc", 1, 1, 64, 10, 1, 1, 1, 1),
    )
    model = DnnModelSpec("toy2", layers, sum(l.params() for l in layers))
    plan = map_model(model, topo)
    enabled = simulate_model(model, topo, plan, cfg.devices, cfg.options)
    disabled = simulate_model(model, topo, plan, cfg.devices,
                              replace(cfg.options, resipi_enabled=False))
    assert disabled.total_latency_s <= enabled.total_latency_s
    # idle (zero demand) laser power: all-active vs reconfigured minimum
    controller = EpochController(topo, cfg.devices)
    all_lit_w = controller.laser_w
    carry(controller, topo, {})
    assert all_lit_w >= controller.laser_w
    assert disabled.energy_breakdown["laser"] / disabled.total_latency_s >= \
        enabled.energy_breakdown["laser"] / enabled.total_latency_s


def test_no_overlap_is_never_faster(cfg):
    topo = default_platform()
    from cpsim.workload import load_shipped_model
    model = load_shipped_model("lenet5")
    plan = map_model(model, topo)
    overlap = simulate_model(model, topo, plan, cfg.devices, cfg.options)
    serial = simulate_model(model, topo, plan, cfg.devices,
                            replace(cfg.options, overlap=False))
    assert serial.total_latency_s >= overlap.total_latency_s


def test_channel_scaling_grows_bits_superlinearly(cfg):
    topo = default_platform()

    def toy(k):
        layer = LayerSpec(0, "conv", 3, 3, 4 * k, 8 * k, 8, 8, 8, 8)
        return DnnModelSpec("toy", (layer,), layer.params())

    runs = {}
    for k in (1, 2):
        model = toy(k)
        plan = map_model(model, topo)
        runs[k] = simulate_model(model, topo, plan, cfg.devices, cfg.options)
    assert runs[2].total_bits > 2 * runs[1].total_bits
    assert runs[2].total_latency_s >= runs[1].total_latency_s


def test_weight_refetch_factor_grows_read_traffic(cfg):
    topo = default_platform()
    model = fc_model(1000, 100)
    plan = map_model(model, topo)
    base = simulate_model(model, topo, plan, cfg.devices, cfg.options)
    refetch = simulate_model(model, topo, plan, cfg.devices,
                             replace(cfg.options, weight_refetch_factor=2.0))
    assert refetch.per_layer[0].bits_moved > base.per_layer[0].bits_moved
    assert refetch.per_layer[0].read_s > base.per_layer[0].read_s
    assert refetch.total_bits == base.total_bits  # EPB denominator is unchanged


def test_trailing_demand_mode_lags_by_one_layer(cfg):
    topo = default_platform()
    big = LayerSpec(0, "fc", 1, 1, 25088, 4096, 1, 1, 1, 1)
    small = LayerSpec(1, "fc", 1, 1, 64, 10, 1, 1, 1, 1)
    model = DnnModelSpec("lagged", (big, small), big.params() + small.params())
    plan = map_model(model, topo)
    oracle = simulate_model(model, topo, plan, cfg.devices, cfg.options)
    trailing = simulate_model(model, topo, plan, cfg.devices,
                              replace(cfg.options, demand_mode="trailing"))
    # trailing sees zero history for the heavy first layer, so it runs it
    # on the floor configuration and pays for it in read time
    assert trailing.per_layer[0].read_s > oracle.per_layer[0].read_s


def test_plan_topology_mismatch_rejected(cfg):
    topo = default_platform()
    model = fc_model()
    plan = map_model(model, topo)
    other = DnnModelSpec("other", model.layers, model.declared_param_count)
    with pytest.raises(MappingError):
        simulate_model(other, topo, plan, cfg.devices, cfg.options)
    mono = build_topology(with_kind(cfg, "monolithic"))
    with pytest.raises(MappingError):
        simulate_model(model, mono, plan, cfg.devices, cfg.options)
    # the plan is checked once per distinct chiplet set: a set that only the
    # last layer uses is checked too
    layers = (LayerSpec(0, "conv", 3, 3, 8, 16, 8, 8, 8, 8),
              LayerSpec(1, "fc", 1, 1, 1024, 10, 1, 1, 1, 1))
    two = DnnModelSpec("two", layers, sum(layer.params() for layer in layers))
    *head, last = map_model(two, topo).assignments
    ghost = last._replace(chiplet_ids=last.chiplet_ids + ("ghost",))
    with pytest.raises(MappingError, match="ghost"):
        simulate_model(two, topo, MappingPlan("two", (*head, ghost)), cfg.devices, cfg.options)
    # a hand-built plan with a MAC-less layer fails before the layer loop
    no_macs = MappingPlan("two", (*head, last._replace(total_macs=0)))
    with pytest.raises(ValueError, match="no MACs"):
        simulate_model(two, topo, no_macs, cfg.devices, cfg.options)
    # a bad device or option record fails when built, so no run ever sees one
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="pcm_transition_s"):
            DeviceParams(pcm_transition_s=bad)
    for name in ("weight_refetch_factor", "elec_congestion_factor"):
        for bad in (0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                replace(cfg.options, **{name: bad})


@pytest.mark.parametrize("kind", ["siph", "elec"])
def test_interposer_topology_without_memory_raises_naming_its_kind(cfg, kind):
    """build_topology rejects an interposer config with no memory chiplet; a
    topology built by hand without one fails in the engine with a
    MappingError naming its kind, on either interposer."""
    built = build_topology(with_kind(cfg, kind))
    bare = replace(built, chiplets=tuple(built.compute_chiplets()), routes=(), mrgs=())
    model = fc_model()
    plan = map_model(model, bare)
    with pytest.raises(MappingError) as caught:
        simulate_model(model, bare, plan, cfg.devices, cfg.options)
    assert str(caught.value) == f"topology {built.kind!r} has no memory chiplet"


def test_siph_topology_whose_routes_do_not_match_its_gateways_raises_naming_the_chiplets(cfg):
    """Every gateway of a siph chiplet writes one route, SWMR from a memory
    chiplet and SWSR from a compute chiplet, as build_topology wires them. A
    hand-built topology that differs fails in the engine and in the epoch
    controller with a MappingError naming its chiplets, sorted: with no routes
    at all, and with dense0's routes dropped, which would otherwise leave its
    lit gateways out of the laser sum without a word."""
    built = build_topology(with_kind(cfg, "siph"))
    routes = built.routes
    swapped = tuple(r._replace(protocol="SWMR") if r.writer_chiplet == "conv5b" else r
                    for r in routes)
    cases = [
        (replace(built, routes=(), mrgs=()), sorted(c.id for c in built.chiplets)),
        (replace(built, routes=tuple(r for r in routes if r.writer_chiplet != "dense0")),
         ["dense0"]),
        (replace(built, routes=routes + routes[-1:]), [routes[-1].writer_chiplet]),
        (replace(built, routes=swapped), ["conv5b"]),
    ]
    model = load_shipped_model("lenet5")
    for topology, named in cases:
        message = f"topology 'siph_interposer': routes do not match the gateways of {named}"
        with pytest.raises(MappingError) as caught:
            simulate_model(model, topology, map_model(model, topology), cfg.devices, cfg.options)
        assert str(caught.value) == message
        with pytest.raises(MappingError) as caught:
            EpochController(topology, cfg.devices)
        assert str(caught.value) == message


def test_hand_built_bad_plans_raise_their_messages(cfg):
    """The plan is checked from its columns, read once per run: a plan of
    another model or length, chiplets the topology lacks (named for the first
    such chiplet set in layer order, sorted) and a MAC-less layer each raise
    their own message."""
    topo = default_platform()
    layers = (LayerSpec(0, "conv", 3, 3, 8, 16, 8, 8, 8, 8),
              LayerSpec(1, "fc", 1, 1, 1024, 10, 1, 1, 1, 1))
    two = DnnModelSpec("two", layers, sum(layer.params() for layer in layers))
    head, last = map_model(two, topo).assignments
    cases = [
        (MappingPlan("other", (head, last)), "plan for 'other' does not match model 'two'"),
        (MappingPlan("two", (head,)), "plan for 'two' does not match model 'two'"),
        (MappingPlan("two", ()), "plan for 'two' does not match model 'two'"),
        (MappingPlan("two", (head, last._replace(chiplet_ids=("zeta", "ghost")))),
         "plan names chiplets absent from topology: ['ghost', 'zeta']"),
        (MappingPlan("two", (head._replace(chiplet_ids=("ghost",)),
                             last._replace(chiplet_ids=("alpha",)))),
         "plan names chiplets absent from topology: ['ghost']"),
        (MappingPlan("two", (head._replace(total_macs=0), last)), "assignment has no MACs"),
    ]
    for plan, message in cases:
        with pytest.raises(MappingError) as caught:
            simulate_model(two, topo, plan, cfg.devices, cfg.options)
        assert str(caught.value) == message


@pytest.mark.parametrize("section, field, value", [("options", "overlap", "no"),
                                                    ("options", "mac_rate_hz", "5e9"),
                                                    ("devices", "laser_efficiency", "0.1")])
def test_library_value_of_the_wrong_type_is_rejected_naming_the_field(cfg, section, field, value):
    """An option or device record checks every field against its annotation
    when built, as a config file's values are checked on load."""
    with pytest.raises(ValueError, match=field):
        replace(getattr(cfg, section), **{field: value})


def test_source_mw_prices_each_path_once_per_topology_and_params(cfg, monkeypatch):
    """Each route's path loss is priced once per (topology, params) objects,
    by the first run on them; a new lit set only adds up the kept source
    powers, and a later run on the same objects prices no path."""
    topo = default_platform()
    model = load_shipped_model("resnet50")
    plan = map_model(model, topo)
    calls = []

    def counted(path, params):
        calls.append(path)
        return path_insertion_loss(path, params)

    monkeypatch.setattr(devices, "path_insertion_loss", counted)
    metrics = simulate_model(model, topo, plan, cfg.devices, cfg.options)
    assert len(calls) == len(topo.routes)
    assert sum(r.overhead_s > 0 for r in metrics.per_layer) > 1   # several lit sets reached
    calls.clear()
    assert simulate_model(model, topo, plan, cfg.devices, cfg.options) == metrics
    assert not calls

