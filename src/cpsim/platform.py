"""Platform topology construction.

Builds the three platform variants from one configuration: the photonic
interposer (chiplets wired through per-gateway microring groups and static
waveguide routes), the electrical mesh interposer (one router per chiplet),
and the monolithic single-chip baseline. A ``PlatformTopology`` is its
platform settings and placed chiplets; its siph wiring and mesh grid follow
from them. It checks the chiplets when built, raising ``ConfigError``, so no
later stage checks them again.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .config import (ELEC, MONO, SIPH, ChipletConfig, ConfigError, PlatformSettings, SimConfig,
                     default_config, with_kind)
from .devices import OpticalPath, Record

SWSR = "SWSR"
SWMR = "SWMR"


class MacUnitType(NamedTuple):
    name: str
    vector_len: int    # dot-product lanes
    family: str        # "conv" | "dense"


DEFAULT_MAC_TYPES = {
    "conv3x3": MacUnitType("conv3x3", 9, "conv"),
    "conv5x5": MacUnitType("conv5x5", 25, "conv"),
    "conv7x7": MacUnitType("conv7x7", 49, "conv"),
    "dense100": MacUnitType("dense100", 100, "dense"),
}


class ChipletSpec(NamedTuple):
    id: str
    role: str                      # "compute" | "memory"
    mac_type: MacUnitType | None
    macs: int
    macs_per_gateway: int
    gateways: int
    position: tuple[float, float]  # mm on the interposer
    grid_cell: tuple[int, int]     # mesh router coordinate

    def gateway_ids(self) -> list[str]:
        return [f"{self.id}:g{k}" for k in range(self.gateways)]


class Mrg(NamedTuple):
    owner_gateway: str
    filter_rows: int
    modulator_rows: int
    mrs_per_row: int

    @property
    def total_mrs(self) -> int:
        return (self.filter_rows + self.modulator_rows) * self.mrs_per_row


class WaveguideRoute(NamedTuple):
    writer_gateway: str
    writer_chiplet: str            # the writer gateway's chiplet id
    writer_index: int              # and its index on that chiplet's laser trunk
    protocol: str                  # SWSR | SWMR
    readers: tuple[str, ...]
    path: OpticalPath


class PlatformTopology(Record):
    platform: PlatformSettings               # the settings it was built from
    chiplets: tuple[ChipletSpec, ...]

    def __post_init__(self) -> None:
        """The rules the wiring needs: a compute chiplet; on an interposer, a memory
        chiplet; on siph, a gateway on every chiplet."""
        roles = {c.role for c in self.chiplets}
        if "compute" not in roles:
            raise ConfigError("no compute chiplets configured")
        if "memory" not in roles and self.kind != MONO:
            raise ConfigError(f"{self.kind} needs at least one memory chiplet")
        if self.kind == SIPH and (dark := sorted(c.id for c in self.chiplets if c.gateways < 1)):
            raise ConfigError(f"topology {SIPH!r}: no gateway on {dark}")

    @property
    def kind(self) -> str:
        return self.platform.kind

    # one slot for the engine's pricing tables of this topology and the one
    # DeviceParams object it last ran with; not a field, so equality, repr
    # and replace do not see it, and it goes when the topology goes
    @cached_property
    def pricing(self) -> list:
        return [None]

    # the siph waveguide routes and microring groups, wired from the memory
    # chiplets and then the compute chiplets, once per topology; () off siph
    @cached_property
    def _wiring(self) -> tuple[tuple[WaveguideRoute, ...], tuple[Mrg, ...]]:
        if self.kind != SIPH:
            return (), ()
        return _wire_photonic(self.memory_chiplets(), self.compute_chiplets(), self.platform)

    @property
    def routes(self) -> tuple[WaveguideRoute, ...]:
        return self._wiring[0]

    @property
    def mrgs(self) -> tuple[Mrg, ...]:
        return self._wiring[1]

    @property
    def mesh_dims(self) -> tuple[int, int]:
        """The chiplet grid, a router each on elec; (1, 1) on mono."""
        return (1, 1) if self.kind == MONO else (self.platform.grid_rows, self.platform.grid_cols)

    def compute_chiplets(self) -> list[ChipletSpec]:
        return [c for c in self.chiplets if c.role == "compute"]

    def memory_chiplets(self) -> list[ChipletSpec]:
        return [c for c in self.chiplets if c.role == "memory"]

    def chiplet(self, chiplet_id: str) -> ChipletSpec:
        for c in self.chiplets:
            if c.id == chiplet_id:
                return c
        raise KeyError(f"unknown chiplet {chiplet_id!r}")

    def total_mrs(self) -> int:
        return sum(m.total_mrs for m in self.mrgs)


def route_length(src: tuple[float, float], dst_set: list[tuple[float, float]],
                 side_mm: float) -> float:
    """Manhattan distance to the farthest reader plus a 10%-of-side trunk
    allowance for laser feed and bends."""
    farthest = max(abs(src[0] - d[0]) + abs(src[1] - d[1]) for d in dst_set)
    return farthest + 0.1 * side_mm


def gateway_peak_bandwidth(topology: PlatformTopology) -> float:
    """Peak bits/s through one active gateway."""
    if topology.kind != SIPH:
        raise ValueError(f"gateway bandwidth undefined for {topology.kind} topology")
    return topology.platform.n_wavelengths * topology.platform.link_rate_bps


def electrical_hops(src_chiplet: str, dst_chiplet: str, topology: PlatformTopology) -> int:
    """Mesh hops between two chiplets' routers, plus the local port hop."""
    if topology.kind != ELEC:
        raise ValueError(f"hop count undefined for {topology.kind} topology")
    src = topology.chiplet(src_chiplet).grid_cell
    dst = topology.chiplet(dst_chiplet).grid_cell
    return abs(src[0] - dst[0]) + abs(src[1] - dst[1]) + 1


def _grid_cells(rows: int, cols: int, n: int) -> list[tuple[int, int]]:
    """The first ``n`` cells center-out, by (Manhattan distance to the center,
    row, col), so memory lands mid-interposer. Cells are made one distance
    ring at a time, so a huge grid costs only the rings the ``n`` cells fill."""
    a, b = rows - 1, cols - 1    # twice the center's coordinates
    cells: list[tuple[int, int]] = []
    reach = 0                    # twice the distance, an integer on any grid
    while len(cells) < n and reach <= a + b:
        for r in range(max(0, (a - reach + 1) // 2), min(a, (a + reach) // 2) + 1):
            rest = reach - abs(2 * r - a)
            cells += [(r, c2 // 2) for c2 in sorted({b - rest, b + rest})
                      if c2 % 2 == 0 and 0 <= c2 <= 2 * b]
        reach += 1
    return cells[:n]


def _cell_position(cell: tuple[int, int], rows: int, cols: int, side_mm: float) -> tuple[float, float]:
    return ((cell[1] + 0.5) * side_mm / cols, (cell[0] + 0.5) * side_mm / rows)


def _place_chiplets(cfg: SimConfig) -> tuple[ChipletSpec, ...]:
    """The placed chiplets, memory and then compute, memory taking the first cells."""
    p = cfg.platform
    capacity = p.grid_rows * p.grid_cols
    if len(cfg.chiplets) > capacity:
        raise ConfigError(f"{len(cfg.chiplets)} chiplets exceed the "
                          f"{p.grid_rows}x{p.grid_cols} interposer grid")
    memory_first = sorted(cfg.chiplets, key=lambda c: c.role != "memory")   # a stable sort
    cells = _grid_cells(p.grid_rows, p.grid_cols, len(memory_first))
    return tuple(_chiplet_spec(c, cell, p) for c, cell in zip(memory_first, cells))


def _chiplet_spec(entry: ChipletConfig, cell: tuple[int, int], p) -> ChipletSpec:
    position = _cell_position(cell, p.grid_rows, p.grid_cols, p.interposer_side_mm)
    if entry.role == "memory":
        return ChipletSpec(entry.id, "memory", None, 0, 0, entry.gateways, position, cell)
    mac_type = DEFAULT_MAC_TYPES.get(entry.mac_type)
    if entry.vector_len:
        mac_type = MacUnitType(entry.mac_type, entry.vector_len,
                               "dense" if entry.mac_type.startswith("dense") else "conv")
    if mac_type is None:
        raise ConfigError(f"chiplet {entry.id!r}: unknown mac_type {entry.mac_type!r} "
                          f"(register a vector_len to define a custom type)")
    return ChipletSpec(entry.id, "compute", mac_type, entry.macs, entry.macs_per_gateway,
                       entry.macs // entry.macs_per_gateway, position, cell)


def _wire_photonic(memory: list[ChipletSpec], compute: list[ChipletSpec],
                   p) -> tuple[tuple[WaveguideRoute, ...], tuple[Mrg, ...]]:
    # (gateway id, chiplet, index on the chiplet's trunk)
    compute_gws = [(gw, c, k) for c in compute for k, gw in enumerate(c.gateway_ids())]
    memory_gws = [(gw, c, k) for c in memory for k, gw in enumerate(c.gateway_ids())]

    routes: list[WaveguideRoute] = []
    mrgs: list[Mrg] = []
    fan_in = {gw: 0 for gw, _, _ in memory_gws}

    # Compute writers: one SWSR route each, partitioned round-robin across
    # memory gateways. One filter and one modulator row per compute MRG.
    for idx, (gw, chiplet, k) in enumerate(compute_gws):
        mem_gw, mem_chiplet, _ = memory_gws[idx % len(memory_gws)]
        length = route_length(chiplet.position, [mem_chiplet.position], p.interposer_side_mm)
        path = OpticalPath(length_mm=length, mrs_passed=p.n_wavelengths,
                           drop_stages=1, split_fanout=1, couplers=1)
        routes.append(WaveguideRoute(gw, chiplet.id, k, SWSR, (mem_gw,), path))
        fan_in[mem_gw] += 1
        mrgs.append(Mrg(gw, filter_rows=1, modulator_rows=1, mrs_per_row=p.n_wavelengths))

    # Memory writers: one SWMR broadcast route each, reaching every compute
    # gateway. Memory MRGs carry one filter row per assigned writer.
    reader_ids = tuple(gw for gw, _, _ in compute_gws)
    reader_positions = [c.position for _, c, _ in compute_gws]
    for gw, chiplet, k in memory_gws:
        length = route_length(chiplet.position, reader_positions, p.interposer_side_mm)
        path = OpticalPath(length_mm=length, mrs_passed=p.n_wavelengths,
                           drop_stages=1, split_fanout=len(reader_ids), couplers=1)
        routes.append(WaveguideRoute(gw, chiplet.id, k, SWMR, reader_ids, path))
        mrgs.append(Mrg(gw, filter_rows=fan_in[gw], modulator_rows=1,
                        mrs_per_row=p.n_wavelengths))
    return tuple(routes), tuple(mrgs)


def build_topology(cfg: SimConfig) -> PlatformTopology:
    """Place the chiplets of ``cfg.platform.kind``; ``with_kind`` picks another."""
    p = cfg.platform
    if p.kind == MONO:
        mac = MacUnitType(f"mono{p.monolithic_vector_len}", p.monolithic_vector_len, "conv")
        chip = ChipletSpec("mono0", "compute", mac, p.monolithic_macs,
                           p.monolithic_macs, 1,
                           (p.interposer_side_mm / 2, p.interposer_side_mm / 2), (0, 0))
        return PlatformTopology(p, chiplets=(chip,))
    return PlatformTopology(p, chiplets=_place_chiplets(cfg))


def default_platform() -> PlatformTopology:
    """The bundled photonic-interposer platform."""
    return build_topology(with_kind(default_config(), SIPH))
