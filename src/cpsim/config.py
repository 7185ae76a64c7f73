"""Platform configuration file loading and simulation options.

A config file has three sections — ``platform``, ``chiplets``, ``devices`` —
plus an optional ``options`` section. Unknown keys are rejected everywhere.
The bundled default config mirrors the reference platform sizing.

A user's config file is YAML, parsed with ``YAML_LOADER``: a module global,
``None`` until ``safe_load``'s first call sets it, which tests may replace.
``safe_load`` narrows its int resolver to decimal integers, so a YAML 1.1
octal, base-60, underscored or hex spelling stays a string, which the field
check rejects by name.
The bundled default is JSON text, which is also YAML, parsed with
``json.loads``. Both documents go through ``config_from_doc``, and every
mapping in them, as in a model descriptor, goes through ``read_keys``. Every
record checks its own fields when built, so a config that exists is a valid
one. PyYAML is imported on the first user file that needs it, so importing
cpsim and running on the bundled files alone never imports it. A model
descriptor in the documented form does not need it: ``workload`` reads that
form itself, into the document ``safe_load`` would return.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache

from .devices import (AtLeastOne, Count, DeviceParams, NonNeg, NonNegInt, Positive, Record,
                      check_fields, choice, replace)

SIPH = "siph_interposer"
ELEC = "elec_interposer"
MONO = "monolithic"
PLATFORM_KINDS = (SIPH, ELEC, MONO)
PlatformKind = choice("PlatformKind", *PLATFORM_KINDS)
ChipletRole = choice("ChipletRole", "compute", "memory")
DemandMode = choice("DemandMode", "upcoming", "trailing")

# CLI shorthand for the three platform variants
KIND_ALIASES = {"siph": SIPH, "elec": ELEC, "mono": MONO}

# libyaml's C parser when PyYAML was built with it, else the pure-Python one.
# Both feed the same SafeConstructor and Resolver, so they load equal objects.
YAML_LOADER = None


@cache
def _decimal_ints(loader: type) -> type:
    """``loader`` whose int resolver takes decimal integers alone. YAML 1.1
    also reads ``010`` as 8, ``1:40`` as 100, ``1_000`` as 1000 and ``0x1F``
    as 31; here they stay strings, which every integer field rejects by name."""
    import re

    decimal = re.compile(r"^[-+]?(?:0|[1-9][0-9]*)$")
    resolvers = {first: [(tag, decimal if tag == "tag:yaml.org,2002:int" else regexp)
                         for tag, regexp in pairs]
                 for first, pairs in loader.yaml_implicit_resolvers.items()}
    return type(f"Decimal{loader.__name__}", (loader,), {"yaml_implicit_resolvers": resolvers})


def safe_load(text: str, error: type[ValueError], what: str):
    """Parse one YAML document with ``YAML_LOADER``, set on the first call,
    reading only decimal integers as ints; malformed YAML raises ``error``,
    saying which ``what`` was unparseable and where."""
    global YAML_LOADER
    import yaml

    if YAML_LOADER is None:
        YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        return yaml.load(text, Loader=_decimal_ints(YAML_LOADER))
    except yaml.YAMLError as exc:
        raise error(f"unparseable {what}: {exc}") from exc


def read_keys(doc, allowed: set, required: set, error: type[ValueError], where: str) -> dict:
    """``doc`` if it is a mapping whose keys are all ``allowed`` and include
    every ``required`` one; else ``error`` names ``where`` and the keys. Keys
    are sorted as strings, since YAML keys may be of mixed types."""
    if not isinstance(doc, dict):
        raise error(f"{where}: expected a mapping, got {type(doc).__name__}")
    keys = set(doc)
    unknown = keys - allowed
    if unknown:
        raise error(f"{where}: unknown keys {sorted(unknown, key=str)}")
    missing = required - keys
    if missing:
        raise error(f"{where}: missing keys {sorted(missing)}")
    return doc


class ConfigError(ValueError):
    """Config file rejected by schema validation."""


class PlatformSettings(Record):
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

    def __post_init__(self) -> None:
        check_fields(self, ConfigError, "platform: ")


# Gateways one chiplet's laser trunk taps, at most. A siph topology has one
# waveguide route and one microring group per gateway, so without a cap a
# mistyped count would exhaust memory instead of being rejected.
MAX_GATEWAYS = 1024

# per chiplet role: the fields it needs, and the fields only the other role reads
_ROLE_FIELDS = {"memory": (("gateways",), ("mac_type", "macs", "macs_per_gateway", "vector_len")),
                "compute": (("mac_type", "macs", "macs_per_gateway"), ("gateways",))}


class ChipletConfig(Record):
    id: str
    role: ChipletRole = "compute"
    mac_type: str = ""               # compute only
    macs: NonNegInt = 0              # compute only
    macs_per_gateway: NonNegInt = 0  # compute only
    gateways: NonNegInt = 0          # memory only; compute derives it
    vector_len: NonNegInt = 0        # compute only; overrides the mac_type registry entry

    def __post_init__(self) -> None:
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


# SimOptions alone stays a frozen dataclass: the benchmark derives its options
# with dataclasses.replace. Its fields and defaults read as a Record's do.
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

    def __post_init__(self) -> None:
        check_fields(self, ConfigError, "options: ")


class SimConfig(Record):
    """One platform's settings, chiplets, devices and options. Each record
    checks its own fields when built; this one adds only what spans them."""

    platform: PlatformSettings
    chiplets: tuple[ChipletConfig, ...]
    devices: DeviceParams
    options: SimOptions

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for chiplet in self.chiplets:
            if chiplet.id in seen:
                raise ConfigError(f"duplicate chiplet id {chiplet.id!r}")
            seen.add(chiplet.id)


_SECTIONS = SimConfig.__annotations__.keys()


def _build(cls, section, where: str):
    """A ``cls`` record from its config section; a section left out or null
    takes every default. Its annotations name the fields, and a field with no
    class attribute has no default."""
    names = cls.__annotations__.keys()
    section = read_keys({} if section is None else section, names,
                        {name for name in names if name not in vars(cls)}, ConfigError, where)
    return cls(**section)


def config_from_doc(doc) -> SimConfig:
    """Build a config from its parsed document; each record checks itself."""
    doc = read_keys({} if doc is None else doc, _SECTIONS, set(), ConfigError, "config")
    chiplet_entries = [] if doc.get("chiplets") is None else doc["chiplets"]
    if not isinstance(chiplet_entries, list):
        raise ConfigError("chiplets section must be a list")
    chiplets = tuple(_build(ChipletConfig, entry, f"chiplets[{i}]")
                     for i, entry in enumerate(chiplet_entries))
    return SimConfig(
        platform=_build(PlatformSettings, doc.get("platform"), "platform"),
        chiplets=chiplets,
        devices=_build(DeviceParams, doc.get("devices"), "devices"),
        options=_build(SimOptions, doc.get("options"), "options"),
    )


def parse_config(text: str) -> SimConfig:
    """Parse a YAML config document and build it."""
    doc = safe_load(text, ConfigError, "config")
    try:
        return config_from_doc(doc)
    except ValueError as exc:
        if " must be a number, got '" not in str(exc):
            raise
        # YAML 1.1 reads 5e9 as a string: a float needs a dot and a signed exponent
        raise ConfigError(f"{exc}; in YAML, write a float with a dot and a signed exponent, "
                          "such as 5.0e+9") from exc


def load_config(path: str) -> SimConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())


def default_config() -> SimConfig:
    """The bundled configuration (reference platform sizing)."""
    from importlib import resources

    text = resources.files("cpsim.data").joinpath("default_platform.yaml").read_text("utf-8")
    return config_from_doc(json.loads(text))


def with_kind(cfg: SimConfig, kind: str) -> SimConfig:
    """Same config targeting a different platform variant, by kind or alias."""
    return replace(cfg, platform=replace(cfg.platform, kind=KIND_ALIASES.get(kind, kind)))
