import time

import pytest

from cpsim import replace
from cpsim.config import (ChipletConfig, ConfigError, PlatformSettings, SimOptions, parse_config,
                          with_kind)
from cpsim.devices import DeviceParams, OpticalPath, PcmcState
from cpsim.platform import (PlatformTopology, _grid_cells, build_topology,
                            default_platform, electrical_hops, gateway_peak_bandwidth,
                            route_length)

FIG6_STYLE = """
platform: {kind: siph_interposer, n_wavelengths: 64}
chiplets:
  - {id: mem, role: memory, gateways: 1}
  - {id: c0, role: compute, mac_type: conv3x3, macs: 1, macs_per_gateway: 1}
  - {id: c1, role: compute, mac_type: conv3x3, macs: 1, macs_per_gateway: 1}
  - {id: c2, role: compute, mac_type: conv5x5, macs: 1, macs_per_gateway: 1}
  - {id: c3, role: compute, mac_type: conv5x5, macs: 1, macs_per_gateway: 1}
  - {id: c4, role: compute, mac_type: conv7x7, macs: 1, macs_per_gateway: 1}
  - {id: c5, role: compute, mac_type: dense100, macs: 1, macs_per_gateway: 1}
"""


@pytest.fixture(scope="module")
def topo():
    return default_platform()


# ------------------------------------------------------- default platform


def test_default_platform_chiplet_mix(topo):
    compute = topo.compute_chiplets()
    assert len(topo.memory_chiplets()) == 1
    assert len(compute) == 8
    by_type = {}
    for c in compute:
        by_type.setdefault(c.mac_type.name, []).append(c)
    assert sorted(by_type) == ["conv3x3", "conv5x5", "conv7x7", "dense100"]
    assert len(by_type["dense100"]) == 2
    assert all(c.macs == 4 and c.macs_per_gateway == 1 for c in by_type["dense100"])
    assert len(by_type["conv7x7"]) == 1
    assert all(c.macs == 8 and c.macs_per_gateway == 2 for c in by_type["conv7x7"])
    assert len(by_type["conv5x5"]) == 2
    assert all(c.macs == 16 and c.macs_per_gateway == 4 for c in by_type["conv5x5"])
    assert len(by_type["conv3x3"]) == 3
    assert all(c.macs == 44 and c.macs_per_gateway == 11 for c in by_type["conv3x3"])


def gateway_count(chiplets):
    return sum(c.gateways for c in chiplets)


def test_default_platform_gateway_counts(topo):
    assert gateway_count(topo.compute_chiplets()) == 32
    assert all(c.gateways == 4 for c in topo.compute_chiplets())


def test_default_platform_route_counts(topo):
    swsr = [r for r in topo.routes if r.protocol == "SWSR"]
    swmr = [r for r in topo.routes if r.protocol == "SWMR"]
    assert len(swsr) == gateway_count(topo.compute_chiplets()) == 32
    assert len(swmr) == gateway_count(topo.memory_chiplets()) == 4
    assert len(topo.routes) == 36
    assert all(len(r.readers) == 1 for r in swsr)
    assert all(len(r.readers) == 32 for r in swmr)


def test_default_platform_memory_filter_rows(topo):
    memory_mrgs = [m for m in topo.mrgs if m.owner_gateway.startswith("mem0")]
    assert sum(m.filter_rows for m in memory_mrgs) == 32
    assert all(m.modulator_rows == 1 for m in memory_mrgs)


def test_default_platform_compute_mrgs(topo):
    compute_mrgs = [m for m in topo.mrgs if not m.owner_gateway.startswith("mem0")]
    assert len(compute_mrgs) == 32
    assert all(m.filter_rows == 1 and m.modulator_rows == 1 for m in compute_mrgs)
    assert all(m.mrs_per_row == 64 for m in topo.mrgs)


def test_default_platform_total_mrs(topo):
    g_c, g_m = gateway_count(topo.compute_chiplets()), gateway_count(topo.memory_chiplets())
    assert topo.total_mrs() == (2 * g_c + g_c + g_m) * topo.platform.n_wavelengths == 6_400


def test_default_platform_memory_centered(topo):
    mem = topo.memory_chiplets()[0]
    assert mem.position == (12.0, 12.0)
    assert mem.grid_cell == (1, 1)


def test_default_platform_link_parameters(topo):
    assert topo.platform.n_wavelengths == 64
    assert topo.platform.link_rate_bps == 12e9
    assert topo.platform.gateway_freq_hz == 2e9
    assert topo.platform.noc_width_bits == 128
    assert topo.platform.noc_freq_hz == 2e9


# ---------------------------------------------------------- build_topology


def test_fig6_style_memory_fan_in():
    topo = build_topology(parse_config(FIG6_STYLE))
    memory_mrgs = [m for m in topo.mrgs if m.owner_gateway.startswith("mem")]
    assert len(memory_mrgs) == 1
    assert memory_mrgs[0].filter_rows == 6
    assert memory_mrgs[0].modulator_rows == 1


def test_divisibility_error():
    text = """
chiplets:
  - {id: mem, role: memory, gateways: 1}
  - {id: c0, role: compute, mac_type: conv3x3, macs: 5, macs_per_gateway: 2}
"""
    with pytest.raises(ConfigError, match="divisible"):
        parse_config(text)


def test_placement_overflow():
    entries = "\n".join(
        f"  - {{id: c{i}, role: compute, mac_type: conv3x3, macs: 1, macs_per_gateway: 1}}"
        for i in range(9))
    text = "chiplets:\n  - {id: mem, role: memory, gateways: 1}\n" + entries
    with pytest.raises(ConfigError, match="exceed"):
        build_topology(parse_config(text))


def sorted_cells(rows, cols):
    """Every cell of the grid, sorted center-out: the reference order."""
    center = ((rows - 1) / 2.0, (cols - 1) / 2.0)
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    return sorted(cells, key=lambda rc: (abs(rc[0] - center[0]) + abs(rc[1] - center[1]),
                                         rc[0], rc[1]))


def test_grid_cells_are_a_prefix_of_the_center_out_sort():
    for rows in range(1, 9):
        for cols in range(1, 9):
            every = sorted_cells(rows, cols)
            for n in range(len(every) + 1):
                assert _grid_cells(rows, cols, n) == every[:n], (rows, cols, n)


def test_huge_grid_builds_in_milliseconds(cfg):
    """Only the cells the chiplets take are made, not grid_rows x grid_cols."""
    huge = replace(cfg, platform=replace(cfg.platform, grid_rows=1_000_000_000))
    for kind in ("siph_interposer", "elec_interposer", "monolithic"):
        t0 = time.perf_counter()
        topology = build_topology(with_kind(huge, kind))
        assert time.perf_counter() - t0 < 1.0, kind
        assert len(topology.chiplets) == (1 if kind == "monolithic" else len(cfg.chiplets))
    memory = build_topology(huge).memory_chiplets()[0]
    assert memory.grid_cell == (499_999_999, 1)   # the center cell, as on a small grid


def test_routes_name_their_writer_chiplet_and_trunk_index(topo):
    for route in topo.routes:
        chiplet = topo.chiplet(route.writer_chiplet)
        assert chiplet.gateway_ids()[route.writer_index] == route.writer_gateway


def test_unknown_config_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        parse_config("devices: {coupler_loss_db: 1.0, bogus_knob: 2}")
    with pytest.raises(ConfigError, match="unknown"):
        parse_config("platform: {kind: siph_interposer, swizzle: 1}")


@pytest.mark.parametrize("macs", ["8", 8.0])
def test_library_chiplet_of_the_wrong_type_is_rejected_naming_it(cfg, macs):
    """A chiplet built in code is type-checked like one read from a config file."""
    dense0 = next(c for c in cfg.chiplets if c.id == "dense0")
    with pytest.raises(ConfigError, match="chiplet 'dense0': macs must be an integer"):
        replace(dense0, macs=macs)


# each record checks its own fields when built, so no bad one reaches a topology
BAD_RECORDS = {
    "n_wavelengths": lambda cfg: PlatformSettings(n_wavelengths=0),
    "mac_rate_hz": lambda cfg: SimOptions(mac_rate_hz="5e9"),
    "laser_efficiency": lambda cfg: DeviceParams(laser_efficiency=0.0),
    "macs": lambda cfg: ChipletConfig("mem0", "memory", macs=4, gateways=1),
    "length_mm": lambda cfg: OpticalPath(length_mm=-1.0),
    "phase": lambda cfg: PcmcState("molten"),
    "chiplet id": lambda cfg: replace(cfg, chiplets=cfg.chiplets + cfg.chiplets[:1]),
    "kind": lambda cfg: with_kind(cfg, "bogus"),
}


@pytest.mark.parametrize("field", sorted(BAD_RECORDS))
def test_bad_record_fails_when_built_naming_the_field(cfg, field):
    with pytest.raises(ValueError, match=field):
        BAD_RECORDS[field](cfg)


@pytest.mark.parametrize("kind", ["siph", "elec", "mono"])
def test_topology_carries_the_settings_it_was_built_from(cfg, kind):
    variant = with_kind(cfg, kind)
    topology = build_topology(variant)
    assert topology.platform is variant.platform
    assert topology.kind == variant.platform.kind


# ------------------ a topology checks its chiplets and derives its wiring


def test_topology_without_compute_chiplets_raises_when_built(cfg):
    """build_topology refuses a compute-less config, and a topology built by
    hand without a compute chiplet fails when built too, on every kind."""
    base = default_platform()
    with pytest.raises(ConfigError) as caught:
        PlatformTopology(base.platform, chiplets=tuple(base.memory_chiplets()))
    assert caught.type is ConfigError and str(caught.value) == "no compute chiplets configured"
    for kind in ("elec", "mono"):
        built = build_topology(with_kind(cfg, kind))
        with pytest.raises(ConfigError) as caught:
            replace(built, chiplets=tuple(built.memory_chiplets()))
        assert str(caught.value) == "no compute chiplets configured"


@pytest.mark.parametrize("kind", ["siph", "elec"])
def test_interposer_topology_without_memory_raises_naming_its_kind(cfg, kind):
    """build_topology rejects an interposer config with no memory chiplet, and
    a topology built by hand without one fails when built with the same
    ConfigError naming its kind, on either interposer."""
    built = build_topology(with_kind(cfg, kind))
    with pytest.raises(ConfigError) as caught:
        replace(built, chiplets=tuple(built.compute_chiplets()))
    assert caught.type is ConfigError
    assert str(caught.value) == f"{built.kind} needs at least one memory chiplet"


def test_siph_chiplet_without_a_gateway_or_ring_group_raises_naming_it(cfg):
    """A siph chiplet has at least one gateway, and its routes and ring groups
    are its gateways'. A topology built by hand whose compute chiplets have no
    gateway would otherwise be priced without a word: the lit-count clamp
    would light a gateway that is not there. It fails when built with a
    ConfigError naming the chiplets, sorted."""
    built = build_topology(with_kind(cfg, "siph"))
    gone = {"conv3c", "conv5b"}
    with pytest.raises(ConfigError) as caught:
        replace(built, chiplets=tuple(c._replace(gateways=0) if c.id in gone else c
                                      for c in built.chiplets))
    assert str(caught.value) == "topology 'siph_interposer': no gateway on ['conv3c', 'conv5b']"


def test_a_topology_is_its_platform_and_chiplets(cfg):
    """A topology's only fields are its platform and chiplets. Its routes, ring
    groups and mesh grid follow from them, so none of the three can be given,
    by hand or through replace; a topology rebuilt by hand from the two fields
    of a built one equals it and derives the same three, on every kind."""
    assert PlatformTopology._fields == ("platform", "chiplets")
    built = default_platform()
    with pytest.raises(TypeError, match=r"unexpected keyword arguments \['routes'\]"):
        PlatformTopology(built.platform, built.chiplets, routes=built.routes)
    for name in ("routes", "mrgs", "mesh_dims"):
        with pytest.raises(TypeError, match=rf"unexpected keyword arguments \['{name}'\]"):
            replace(built, **{name: getattr(built, name)})
    for kind in ("siph", "elec", "mono"):
        built = build_topology(with_kind(cfg, kind))
        by_hand = PlatformTopology(built.platform, built.chiplets)
        assert by_hand == built and by_hand is not built
        assert ((by_hand.routes, by_hand.mrgs, by_hand.mesh_dims)
                == (built.routes, built.mrgs, built.mesh_dims))
        assert bool(by_hand.routes) == bool(by_hand.mrgs) == (kind == "siph")


def test_route_paths_carry_modulator_row_and_fanout(topo):
    for route in topo.routes:
        assert route.path.mrs_passed == topo.platform.n_wavelengths
        assert route.path.drop_stages == 1
        assert route.path.couplers == 1
        assert route.path.split_fanout == (32 if route.protocol == "SWMR" else 1)


def test_swsr_routes_partition_round_robin(topo):
    fan_in = {}
    for route in topo.routes:
        if route.protocol == "SWSR":
            fan_in[route.readers[0]] = fan_in.get(route.readers[0], 0) + 1
    assert sorted(fan_in.values()) == [8, 8, 8, 8]


# -------------------------------------------------------------- geometry


def test_route_length_trunk_only():
    assert route_length((0, 0), [(0, 0)], 24.0) == pytest.approx(2.4)


def test_route_length_single_reader():
    assert route_length((0, 0), [(8, 8)], 24.0) == pytest.approx(18.4)


def test_route_length_farthest_reader():
    assert route_length((0, 0), [(8, 8), (16, 0)], 24.0) == pytest.approx(18.4)


def test_route_length_symmetric_and_monotone():
    a, b = (3.0, 7.0), (11.0, 2.0)
    assert route_length(a, [b], 24.0) == route_length(b, [a], 24.0)
    shorter = route_length(a, [b], 24.0)
    assert route_length(a, [b, (20.0, 20.0)], 24.0) >= shorter


# ------------------------------------------------------- bandwidth / hops


def test_gateway_peak_bandwidth(topo, cfg):
    assert gateway_peak_bandwidth(topo) == pytest.approx(768e9)
    elec = build_topology(with_kind(cfg, "elec_interposer"))
    with pytest.raises(ValueError):
        gateway_peak_bandwidth(elec)


def test_gateway_peak_bandwidth_scales():
    one = parse_config(FIG6_STYLE.replace("n_wavelengths: 64", "n_wavelengths: 1"))
    assert gateway_peak_bandwidth(build_topology(one)) == pytest.approx(12e9)
    half = parse_config(FIG6_STYLE.replace("n_wavelengths: 64", "n_wavelengths: 32"))
    assert gateway_peak_bandwidth(build_topology(half)) == pytest.approx(384e9)


def test_electrical_hops(cfg):
    topo = build_topology(with_kind(cfg, "elec_interposer"))
    cells = {c.grid_cell: c.id for c in topo.chiplets}
    origin, far, near = cells[(0, 0)], cells[(2, 2)], cells[(0, 1)]
    assert electrical_hops(origin, origin, topo) == 1
    assert electrical_hops(origin, far, topo) == 5
    assert electrical_hops(origin, near, topo) == 2
    with pytest.raises(KeyError):
        electrical_hops("nope", origin, topo)
    with pytest.raises(ValueError) as caught:
        electrical_hops("mem0", "dense0", build_topology(with_kind(cfg, "siph")))
    assert caught.type is ValueError
    assert str(caught.value) == "hop count undefined for siph_interposer topology"


def test_monolithic_topology(cfg):
    topo = build_topology(with_kind(cfg, "monolithic"))
    assert topo.kind == "monolithic"
    assert len(topo.chiplets) == 1
    chip = topo.chiplets[0]
    assert chip.macs == 128
    assert chip.mac_type.vector_len == 25
    assert topo.platform.offchip_bw_bps == pytest.approx(256e9)
    assert not topo.routes and not topo.mrgs
