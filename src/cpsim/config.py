"""Platform configuration file loading and simulation options.

A config file has three sections — ``platform``, ``chiplets``, ``devices`` —
plus an optional ``options`` section. Unknown keys are rejected everywhere.
The bundled default config mirrors the reference platform sizing.

A user's config file is YAML, parsed with ``YAML_LOADER``. The bundled
default is JSON text, which is also YAML, parsed with ``json.loads``. Both
documents go through ``config_from_doc``, which makes every check. PyYAML is
imported on the first user file, so importing cpsim and running on the
bundled files alone never imports it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields, replace

from .devices import (AtLeastOne, Count, DeviceParams, NonNeg, NonNegInt, Positive, check_fields,
                      choice)

SIPH = "siph_interposer"
ELEC = "elec_interposer"
MONO = "monolithic"
PLATFORM_KINDS = (SIPH, ELEC, MONO)
PlatformKind = choice("PlatformKind", *PLATFORM_KINDS)
ChipletRole = choice("ChipletRole", "compute", "memory")
DemandMode = choice("DemandMode", "upcoming", "trailing")

# CLI shorthand for the three platform variants
KIND_ALIASES = {"siph": SIPH, "elec": ELEC, "mono": MONO}


def __getattr__(name: str):
    """``YAML_LOADER`` on first use (PEP 562), then a module global: libyaml's
    C parser when PyYAML was built with it, else the pure-Python one. Both feed
    the same SafeConstructor and Resolver, so they load equal objects."""
    if name != "YAML_LOADER":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import yaml

    global YAML_LOADER
    YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    return YAML_LOADER


def safe_load(text: str, error: type[ValueError], what: str):
    """Parse one YAML document with ``YAML_LOADER``; malformed YAML raises
    ``error``, saying which ``what`` was unparseable and where."""
    import yaml

    try:   # attribute access, so the first call resolves YAML_LOADER
        return yaml.load(text, Loader=sys.modules[__name__].YAML_LOADER)
    except yaml.YAMLError as exc:
        raise error(f"unparseable {what}: {exc}") from exc


class ConfigError(ValueError):
    """Config file rejected by schema validation."""


@dataclass(frozen=True)
class PlatformSettings:
    kind: PlatformKind = SIPH
    n_wavelengths: Count = 64
    link_rate_bps: Positive = 12e9          # per wavelength
    gateway_freq_hz: Positive = 2e9
    noc_width_bits: Count = 128
    noc_freq_hz: Positive = 2e9
    interposer_side_mm: Positive = 24.0
    grid_rows: Count = 3
    grid_cols: Count = 3
    noc_energy_pj_per_bit_hop: NonNeg = 1.0
    noc_router_static_w: NonNeg = 0.5       # per mesh router
    offchip_bw_bps: Positive = 256e9        # monolithic memory interface
    offchip_energy_pj_per_bit: NonNeg = 15.0
    monolithic_macs: Count = 128
    monolithic_vector_len: Count = 25

    def validate(self) -> None:
        check_fields(self, ConfigError, "platform: ")


# Gateways one chiplet's laser trunk taps, at most. The builder wires one
# waveguide route and one microring group per gateway, so without a cap a
# mistyped count would exhaust memory instead of being rejected.
MAX_GATEWAYS = 1024

# per chiplet role: the fields it needs, and the fields only the other role reads
_ROLE_FIELDS = {"memory": (("gateways",), ("mac_type", "macs", "macs_per_gateway", "vector_len")),
                "compute": (("mac_type", "macs", "macs_per_gateway"), ("gateways",))}


@dataclass(frozen=True)
class ChipletConfig:
    id: str
    role: ChipletRole = "compute"
    mac_type: str = ""               # compute only
    macs: NonNegInt = 0              # compute only
    macs_per_gateway: NonNegInt = 0  # compute only
    gateways: NonNegInt = 0          # memory only; compute derives it
    vector_len: NonNegInt = 0        # compute only; overrides the mac_type registry entry

    def validate(self) -> None:
        where = f"chiplet {self.id!r}: "
        check_fields(self, ConfigError, where)
        own, other = _ROLE_FIELDS[self.role]
        for name in other:   # a field only the other role reads would be ignored
            if getattr(self, name):
                raise ConfigError(f"{where}{name} does not apply to a {self.role} chiplet")
        for name in own:
            if not getattr(self, name):
                raise ConfigError(f"{where}{self.role} chiplets need {name}")
        if self.role == "compute" and self.macs % self.macs_per_gateway != 0:
            raise ConfigError(f"{where}{self.macs} MACs not divisible by "
                              f"{self.macs_per_gateway} MACs per gateway")
        named, gateways = (("gateways", self.gateways) if self.role == "memory" else
                           ("macs / macs_per_gateway", self.macs // self.macs_per_gateway))
        if gateways > MAX_GATEWAYS:
            raise ConfigError(f"{where}{named} gives {gateways} gateways, "
                              f"more than MAX_GATEWAYS ({MAX_GATEWAYS})")


@dataclass(frozen=True)
class SimOptions:
    overlap: bool = True                     # max(compute, read, write) per layer
    resipi_enabled: bool = True              # epoch-based gateway reconfiguration
    epoch_s: Positive = 5e-6
    demand_mode: DemandMode = "upcoming"
    weight_refetch_factor: AtLeastOne = 1.0
    mac_rate_hz: Positive = 5e9              # photonic MAC symbol rate
    gateway_overhead_cycles: NonNegInt = 4   # store-and-forward buffering per transfer
    router_latency_cycles: NonNegInt = 3
    elec_congestion_factor: AtLeastOne = 2.0
    pcmc_switch_energy_pj: NonNeg = 1000.0   # per retuned coupler on reconfiguration

    def validate(self) -> None:
        check_fields(self, ConfigError, "options: ")


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
    unknown = set(section) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown, key=str)}")
    try:
        return cls(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_doc(doc) -> SimConfig:
    """Build and validate a config from its parsed document."""
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    unknown = set(doc) - {"platform", "chiplets", "devices", "options"}
    if unknown:
        raise ConfigError(f"unknown config sections {sorted(unknown, key=str)}")
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


def parse_config(text: str) -> SimConfig:
    """Parse a YAML config document and build it."""
    return config_from_doc(safe_load(text, ConfigError, "config"))


def load_config(path: str) -> SimConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())


def default_config() -> SimConfig:
    """The bundled configuration (reference platform sizing)."""
    from importlib import resources

    text = resources.files("cpsim.data").joinpath("default_platform.yaml").read_text("utf-8")
    return config_from_doc(json.loads(text))


def with_kind(cfg: SimConfig, kind: str) -> SimConfig:
    """Same config targeting a different platform variant."""
    kind = KIND_ALIASES.get(kind, kind)
    if kind not in PLATFORM_KINDS:
        raise ConfigError(f"unknown platform kind {kind!r}")
    return replace(cfg, platform=replace(cfg.platform, kind=kind))
