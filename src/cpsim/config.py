"""Platform configuration file loading and simulation options.

A config file has three sections — ``platform``, ``chiplets``, ``devices`` —
plus an optional ``options`` section. Unknown keys are rejected everywhere.
The bundled default config mirrors the reference platform sizing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import yaml

from .devices import DeviceParams, check_fields, check_type

SIPH = "siph_interposer"
ELEC = "elec_interposer"
MONO = "monolithic"
PLATFORM_KINDS = (SIPH, ELEC, MONO)

# CLI shorthand for the three platform variants
KIND_ALIASES = {"siph": SIPH, "elec": ELEC, "mono": MONO}


# libyaml's C scanner and parser when PyYAML was built with it, the
# pure-Python ones otherwise; both feed the same SafeConstructor and Resolver,
# so they load equal objects. Descriptors are parsed with it too.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def safe_load(text: str):
    """Parse one YAML document with ``YAML_LOADER``."""
    return yaml.load(text, Loader=YAML_LOADER)


class ConfigError(ValueError):
    """Config file rejected by schema validation."""


@dataclass(frozen=True)
class PlatformSettings:
    kind: str = SIPH
    n_wavelengths: int = 64
    link_rate_bps: float = 12e9          # per wavelength
    gateway_freq_hz: float = 2e9
    noc_width_bits: int = 128
    noc_freq_hz: float = 2e9
    interposer_side_mm: float = 24.0
    grid_rows: int = 3
    grid_cols: int = 3
    noc_energy_pj_per_bit_hop: float = 1.0
    noc_router_static_w: float = 0.5     # per mesh router
    offchip_bw_bps: float = 256e9        # monolithic memory interface
    offchip_energy_pj_per_bit: float = 15.0
    monolithic_macs: int = 128
    monolithic_vector_len: int = 25

    def validate(self) -> None:
        if self.kind not in PLATFORM_KINDS:
            raise ConfigError(f"unknown platform kind {self.kind!r}")
        check_fields(self, ConfigError)
        positive = (self.n_wavelengths, self.link_rate_bps, self.gateway_freq_hz,
                    self.noc_width_bits, self.noc_freq_hz, self.interposer_side_mm,
                    self.grid_rows, self.grid_cols, self.offchip_bw_bps,
                    self.monolithic_macs, self.monolithic_vector_len)
        if any(v <= 0 for v in positive):
            raise ConfigError("platform rates, counts, and dimensions must be > 0")
        for name in ("noc_energy_pj_per_bit_hop", "noc_router_static_w",
                     "offchip_energy_pj_per_bit"):
            if getattr(self, name) < 0:
                raise ConfigError(f"platform: {name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class ChipletConfig:
    id: str
    role: str = "compute"          # compute | memory
    mac_type: str = ""             # compute only
    macs: int = 0
    macs_per_gateway: int = 0
    gateways: int = 0              # memory only; compute derives it
    vector_len: int = 0            # overrides the mac_type registry entry

    def validate(self) -> None:
        check_fields(self, ConfigError, f"chiplet {self.id!r}: ")
        if self.role not in ("compute", "memory"):
            raise ConfigError(f"chiplet {self.id!r}: unknown role {self.role!r}")
        if self.vector_len < 0:
            raise ConfigError(f"chiplet {self.id!r}: vector_len {self.vector_len} must be >= 0")
        if self.role == "memory":
            if self.gateways < 1:
                raise ConfigError(f"chiplet {self.id!r}: memory chiplets need gateways >= 1")
            if self.macs:
                raise ConfigError(f"chiplet {self.id!r}: memory chiplets carry no MACs")
        else:
            if self.macs < 1 or self.macs_per_gateway < 1:
                raise ConfigError(f"chiplet {self.id!r}: macs and macs_per_gateway must be >= 1")
            if self.macs % self.macs_per_gateway != 0:
                raise ConfigError(
                    f"chiplet {self.id!r}: {self.macs} MACs not divisible by "
                    f"{self.macs_per_gateway} MACs per gateway")
            if not self.mac_type:
                raise ConfigError(f"chiplet {self.id!r}: compute chiplets need a mac_type")


@dataclass(frozen=True)
class SimOptions:
    overlap: bool = True                 # max(compute, read, write) per layer
    resipi_enabled: bool = True          # epoch-based gateway reconfiguration
    epoch_s: float = 5e-6
    demand_mode: str = "upcoming"        # upcoming | trailing
    weight_refetch_factor: float = 1.0
    mac_rate_hz: float = 5e9             # photonic MAC symbol rate
    gateway_overhead_cycles: int = 4     # store-and-forward buffering per transfer
    router_latency_cycles: int = 3
    elec_congestion_factor: float = 2.0
    pcmc_switch_energy_pj: float = 1000.0  # per retuned coupler on reconfiguration

    def validate(self) -> None:
        if self.demand_mode not in ("upcoming", "trailing"):
            raise ConfigError(f"unknown demand mode {self.demand_mode!r}")
        check_fields(self, ConfigError)
        for name in ("epoch_s", "mac_rate_hz"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
        for name in ("weight_refetch_factor", "elec_congestion_factor"):
            value = getattr(self, name)
            if value < 1.0:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        for name in ("gateway_overhead_cycles", "router_latency_cycles",
                     "pcmc_switch_energy_pj"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class SimConfig:
    platform: PlatformSettings
    chiplets: tuple[ChipletConfig, ...]
    devices: DeviceParams
    options: SimOptions

    def validate(self) -> None:
        self.platform.validate()
        self.options.validate()
        self.devices.validate()
        seen: set[str] = set()
        for chiplet in self.chiplets:
            chiplet.validate()
            if chiplet.id in seen:
                raise ConfigError(f"duplicate chiplet id {chiplet.id!r}")
            seen.add(chiplet.id)


def _build(cls, section: dict | None, where: str):
    section = section or {}
    if not isinstance(section, dict):
        raise ConfigError(f"{where} section must be a mapping")
    annotations = {f.name: f.type for f in fields(cls)}
    unknown = set(section) - set(annotations)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    for name, value in section.items():
        check_type(name, annotations[name], value, ConfigError, f"{where}: ")
    try:
        return cls(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config(text: str) -> SimConfig:
    try:
        doc = safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"unparseable config: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    unknown = set(doc) - {"platform", "chiplets", "devices", "options"}
    if unknown:
        raise ConfigError(f"unknown config sections {sorted(unknown)}")
    chiplet_entries = doc.get("chiplets") or []
    if not isinstance(chiplet_entries, list):
        raise ConfigError("chiplets section must be a list")
    chiplets = tuple(_build(ChipletConfig, entry, f"chiplets[{i}]")
                     for i, entry in enumerate(chiplet_entries))
    cfg = SimConfig(
        platform=_build(PlatformSettings, doc.get("platform"), "platform"),
        chiplets=chiplets,
        devices=_build(DeviceParams, doc.get("devices"), "devices"),
        options=_build(SimOptions, doc.get("options"), "options"),
    )
    cfg.validate()
    return cfg


def load_config(path: str) -> SimConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())


def default_config() -> SimConfig:
    """The bundled configuration (reference platform sizing)."""
    from importlib import resources

    text = resources.files("cpsim.data").joinpath("default_platform.yaml").read_text("utf-8")
    return parse_config(text)


def with_kind(cfg: SimConfig, kind: str) -> SimConfig:
    """Same config targeting a different platform variant."""
    kind = KIND_ALIASES.get(kind, kind)
    if kind not in PLATFORM_KINDS:
        raise ConfigError(f"unknown platform kind {kind!r}")
    return replace(cfg, platform=replace(cfg.platform, kind=kind))
