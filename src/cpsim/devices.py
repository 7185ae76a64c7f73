"""Analytical photonic device models.

Pure functions over immutable inputs: phase-change coupler transfer,
link-budget composition, laser power solving, serialization timing and
microring tuning power. A path's loss does not depend on which gateways are
lit, so a caller prices each path once with source_mw and passes the mW of
the lit paths to required_laser_power. Numeric defaults in DeviceParams are
calibration values with physically typical magnitudes, not measured data.
PCMC loss is not modeled: every route's OpticalPath carries a fixed
couplers=1, and only tests reach pcmc_transfer and PcmcState.excess_loss_db.
The field schema lives here too: check_fields checks every config, device
and layer field against the domain its annotation names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Sequence

CRYSTALLINE = "crystalline"
PARTIAL = "partially_crystalline"
AMORPHOUS = "amorphous"


@dataclass(frozen=True)
class PcmcState:
    """Phase-change coupler state. ``t`` is the cross fraction for the
    partially crystalline state."""

    phase: str  # CRYSTALLINE | PARTIAL | AMORPHOUS
    t: float = 0.0
    excess_loss_db: float = 0.0

    def validate(self) -> None:
        if self.phase not in (CRYSTALLINE, PARTIAL, AMORPHOUS):
            raise ValueError(f"unknown PCMC phase {self.phase!r}")
        if self.phase == PARTIAL and not 0.0 <= self.t <= 1.0:
            raise ValueError(f"partial cross fraction {self.t} outside [0, 1]")
        if self.excess_loss_db < 0.0:
            raise ValueError("excess loss must be >= 0 dB")


# A field's annotation names its domain: the types its value may take and the
# one bound it must meet. Every module here imports annotations from
# __future__, so an annotation is the string check_fields looks up; the aliases
# below make those strings name real types for a reader. A value is a bool
# exactly when its field is, an int field takes no float, and a float field
# takes an int but no NaN or infinity.
Count = int          # >= 1
NonNegInt = int      # >= 0
Bitwidth = int       # in [1, 32]
NonNeg = float       # >= 0
Positive = float     # > 0
AtLeastOne = float   # >= 1
Fraction = float     # in (0, 1]

_INT, _FLOAT = (int,), (int, float)
# annotation: (types a value may have, their noun, bound test or None, bound text)
_DOMAINS = {
    "int": (_INT, "an integer", None, ""),
    "float": (_FLOAT, "a number", None, ""),
    "bool": ((bool,), "true or false", None, ""),
    "str": ((str,), "a string", None, ""),
    "tuple": ((tuple,), "a tuple", None, ""),
    "Count": (_INT, "an integer", lambda v: v >= 1, ">= 1"),
    "NonNegInt": (_INT, "an integer", lambda v: v >= 0, ">= 0"),
    "Bitwidth": (_INT, "an integer", lambda v: 1 <= v <= 32, "in [1, 32]"),
    "NonNeg": (_FLOAT, "a number", lambda v: v >= 0.0, ">= 0"),
    "Positive": (_FLOAT, "a number", lambda v: v > 0.0, "> 0"),
    "AtLeastOne": (_FLOAT, "a number", lambda v: v >= 1.0, ">= 1"),
    "Fraction": (_FLOAT, "a number", lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
}
_SCHEMAS: dict[type, tuple] = {}


def choice(alias: str, *values: str) -> type:
    """Declare the annotation ``alias`` as the domain of the strings ``values``."""
    _DOMAINS[alias] = ((str,), "a string", frozenset(values).__contains__,
                       "one of " + ", ".join(map(repr, values)))
    return str


def field_schema(cls: type) -> tuple:
    """(name, types, noun, bound test, bound text) of each field of the
    dataclass or named tuple ``cls``, in field order, resolved once per class.
    A named tuple keeps each annotation as a ForwardRef, and ``tuple[X, ...]``
    is checked as a tuple."""
    schema = _SCHEMAS.get(cls)
    if schema is None:
        schema = _SCHEMAS[cls] = tuple(
            (name, *_DOMAINS[getattr(t, "__forward_arg__", t).partition("[")[0]])
            for name, t in cls.__annotations__.items())
    return schema


def check_fields(obj, error: type[ValueError] = ValueError, where: str = "") -> None:
    """Reject a value of ``obj`` outside its field's domain: of another type,
    a NaN or infinite float, or beyond the field's bound. NaN or a string
    would otherwise pass or break every ordering check after this one."""
    for name, accepted, noun, test, bound in field_schema(type(obj)):
        value = getattr(obj, name)
        if type(value) not in accepted:
            hint = ""
            if accepted is _FLOAT and type(value) is str:
                # YAML 1.1 reads 5e9 as a string: a float needs a dot and a signed exponent
                hint = "; in YAML, write a float with a dot and a signed exponent, such as 5.0e+9"
            raise error(f"{where}{name} must be {noun}, got {value!r}{hint}")
        if type(value) is float and not math.isfinite(value):
            raise error(f"{where}{name} must be finite, got {value}")
        if test is not None and not test(value):
            raise error(f"{where}{name} must be {bound}, got {value!r}")


@dataclass(frozen=True)
class DeviceParams:
    coupler_loss_db: NonNeg = 1.0
    propagation_loss_db_per_mm: NonNeg = 0.1
    mr_through_loss_db: NonNeg = 0.01
    mr_drop_loss_db: NonNeg = 0.5
    splitter_excess_db: NonNeg = 0.1
    pd_sensitivity_dbm: float = -20.0
    laser_efficiency: Fraction = 0.1        # wall-plug fraction
    mr_tuning_mw: NonNeg = 0.5              # per actively tuned MR
    modulator_energy_pj_per_bit: NonNeg = 1.0
    filter_pd_energy_pj_per_bit: NonNeg = 1.0
    gateway_elec_energy_pj_per_bit: NonNeg = 2.0
    dac_energy_pj: NonNeg = 0.3             # per converted vector element
    adc_energy_pj: NonNeg = 1.0             # per accumulated dot product
    pcm_transition_s: NonNeg = 10e-6
    group_velocity_mm_per_s: Positive = 7.5e10  # ~c / 4 in an SOI waveguide

    def validate(self) -> None:
        check_fields(self, ValueError, "devices: ")


@dataclass(frozen=True)
class OpticalPath:
    """Loss-relevant inventory of one laser-to-detector path."""

    length_mm: float
    mrs_passed: int = 0
    drop_stages: int = 0
    split_fanout: int = 1
    couplers: int = 0

    def validate(self) -> None:
        if self.length_mm < 0 or self.mrs_passed < 0 or self.drop_stages < 0 or self.couplers < 0:
            raise ValueError("path counts must be >= 0")
        if self.split_fanout < 1:
            raise ValueError("split fanout must be >= 1")


def pcmc_transfer(state: PcmcState) -> tuple[float, float]:
    """(bar, cross) power fractions; bar + cross = 10^(-excess_loss/10)."""
    state.validate()
    through = 10.0 ** (-state.excess_loss_db / 10.0)
    if state.phase == CRYSTALLINE:
        return through, 0.0
    if state.phase == AMORPHOUS:
        return 0.0, through
    return (1.0 - state.t) * through, state.t * through


def pcmc_for_split(target_cross: float, excess_loss_db: float = 0.0) -> PcmcState:
    """State whose pre-loss cross fraction equals target_cross."""
    if not 0.0 <= target_cross <= 1.0:
        raise ValueError(f"target cross fraction {target_cross} outside [0, 1]")
    if target_cross == 0.0:
        return PcmcState(CRYSTALLINE, excess_loss_db=excess_loss_db)
    if target_cross == 1.0:
        return PcmcState(AMORPHOUS, excess_loss_db=excess_loss_db)
    return PcmcState(PARTIAL, t=target_cross, excess_loss_db=excess_loss_db)


def path_insertion_loss(path: OpticalPath, params: DeviceParams) -> float:
    """dB along the path: couplers, propagation, passed MRs, drops, and an
    ideal 1/N split plus per-stage excess on a binary splitter tree."""
    path.validate()
    loss = (path.couplers * params.coupler_loss_db
            + path.length_mm * params.propagation_loss_db_per_mm
            + path.mrs_passed * params.mr_through_loss_db
            + path.drop_stages * params.mr_drop_loss_db)
    if path.split_fanout > 1:
        loss += 10.0 * math.log10(path.split_fanout)
        loss += math.ceil(math.log2(path.split_fanout)) * params.splitter_excess_db
    return loss


def source_mw(path: OpticalPath, params: DeviceParams) -> float:
    """Optical mW per wavelength the laser must launch into ``path`` so it
    delivers detector sensitivity."""
    return 10.0 ** ((params.pd_sensitivity_dbm + path_insertion_loss(path, params)) / 10.0)


def required_laser_power(source_mws: Sequence[float], n_wavelengths: int,
                         params: DeviceParams) -> float:
    """Wall-plug watts to drive paths needing ``source_mws`` (``source_mw``
    of each) on every wavelength. Deactivated paths must be excluded by the
    caller."""
    if not source_mws:
        raise ValueError("no optical paths to drive")
    if n_wavelengths < 1:
        raise ValueError("need at least one wavelength")
    # a left fold from 0.0 in path order, so the float sum is stable
    return n_wavelengths * reduce(add, source_mws, 0.0) / 1e3 / params.laser_efficiency


def serialization_time(bits: int, n_wavelengths: int, rate_bps: float) -> float:
    """Seconds to clock ``bits`` through n_wavelengths parallel OOK lanes."""
    if n_wavelengths < 1:
        raise ValueError("need at least one wavelength")
    if rate_bps <= 0:
        raise ValueError("rate must be > 0")
    return bits / (n_wavelengths * rate_bps)


def mr_tuning_power(active_mrs: int, params: DeviceParams) -> float:
    """Watts to hold ``active_mrs`` microrings on their resonances."""
    return active_mrs * params.mr_tuning_mw / 1e3


def pcmc_chain_for_equal_split(active: Sequence[bool]) -> list[PcmcState]:
    """PCMC settings along a laser trunk so each active tap receives an
    equal share of the trunk power and inactive taps receive none.

    Walking the chain, the i-th active tap (of k total) crosses 1/(k-i)
    of what remains on the trunk; the last active tap goes amorphous.
    """
    remaining_taps = sum(1 for a in active if a)
    states: list[PcmcState] = []
    for is_active in active:
        if not is_active or remaining_taps == 0:
            states.append(PcmcState(CRYSTALLINE))
            continue
        states.append(pcmc_for_split(1.0 / remaining_taps))
        remaining_taps -= 1
    return states
