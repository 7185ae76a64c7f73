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
and layer field against the domain its annotation names, and fields_hold a
column of layers at once. So does Record, the base of every record that
checks itself when built, and ``replace``.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add, attrgetter
from typing import Sequence

CRYSTALLINE = "crystalline"
PARTIAL = "partially_crystalline"
AMORPHOUS = "amorphous"

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
Name = str           # a report's table cell: no comma, tab or line break, not "geomean"

_INT, _FLOAT = (int,), (int, float)
_CELL_BREAKS = frozenset(",\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")   # str.splitlines' too
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
    "Name": ((str,), "a string", lambda v: v != "geomean" and _CELL_BREAKS.isdisjoint(v),
             "free of commas, tabs and line breaks, and not 'geomean'"),
}
_SCHEMAS: dict[type, tuple] = {}


def choice(alias: str, *values: str) -> type:
    """Declare the annotation ``alias`` as the domain of the strings ``values``."""
    _DOMAINS[alias] = ((str,), "a string", frozenset(values).__contains__,
                       "one of " + ", ".join(map(repr, values)))
    return str


def field_schema(cls: type) -> tuple:
    """(name, types, noun, bound test, bound text) of each field of the
    Record, named tuple or dataclass ``cls``, in field order, resolved once
    per class. Each reads its fields from its class annotations; a named
    tuple keeps each annotation as a ForwardRef, and ``tuple[X, ...]`` is
    checked as a tuple."""
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
            raise error(f"{where}{name} must be {noun}, got {value!r}")
        if type(value) is float and not math.isfinite(value):
            raise error(f"{where}{name} must be finite, got {value}")
        if test is not None and not test(value):
            raise error(f"{where}{name} must be {bound}, got {value!r}")


def fields_hold(cls: type, columns) -> bool:
    """Whether ``check_fields`` passes every row of ``cls`` records given as
    ``columns``, one per field: each one's types, then its distinct values' bound."""
    for (_, accepted, _, test, _), column in zip(field_schema(cls), columns):
        types = set(map(type, column))
        if not types.issubset(accepted):
            return False
        distinct = set(column)
        if (float in types and not all(map(math.isfinite, distinct))
                or test is not None and not all(map(test, distinct))):
            return False
    return True


class Record:
    """Base of the records that check themselves when built. The class
    annotations, in order, are the fields, and a class attribute is a field's
    default. A record is built from positional or keyword arguments, then
    ``__post_init__`` checks it; after that it is frozen. It compares, hashes
    and prints by its field values, as a frozen dataclass does, in the same
    repr format. It keeps a ``__dict__``, so a ``cached_property`` works on it
    and stays out of equality and repr. Records are built without generating
    code per class, which keeps import fast."""

    _fields: tuple = ()   # set per subclass, as are the others
    _field_set: frozenset = frozenset()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._field_set = frozenset(cls._fields)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}
        # the field values equality and hash compare; not bound, so called with the record
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        names, cls = self._fields, type(self).__name__
        if args:
            if len(args) > len(names):
                raise TypeError(f"{cls}() takes {len(names)} arguments, got {len(args)}")
            positional = dict(zip(names, args))
            repeated = sorted(positional.keys() & kwargs.keys())
            if repeated:
                raise TypeError(f"{cls}() got multiple values for {repeated}")
            kwargs.update(positional)
        values = {**self._defaults, **kwargs}
        if values.keys() != self._field_set:
            unknown = sorted(values.keys() - self._field_set)
            if unknown:
                raise TypeError(f"{cls}() got unexpected keyword arguments {unknown}")
            missing = [name for name in names if name not in values]
            raise TypeError(f"{cls}() missing required arguments {missing}")
        for name, value in values.items():   # as a dataclass sets them, so reads stay as fast
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields just set; a record with no checks inherits this."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def replace(record, /, **changes):
    """A copy of the Record or dataclass ``record`` with ``changes`` made,
    built through its constructor, so the copy is checked again."""
    cls = type(record)
    return cls(**{name: getattr(record, name) for name in cls.__annotations__} | changes)


PcmcPhase = choice("PcmcPhase", CRYSTALLINE, PARTIAL, AMORPHOUS)


class PcmcState(Record):
    """Phase-change coupler state. ``t`` is the cross fraction for the
    partially crystalline state."""

    phase: PcmcPhase
    t: float = 0.0
    excess_loss_db: NonNeg = 0.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.phase == PARTIAL and not 0.0 <= self.t <= 1.0:
            raise ValueError(f"t must be in [0, 1] for a partial state, got {self.t!r}")


class DeviceParams(Record):
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

    def __post_init__(self) -> None:
        check_fields(self, ValueError, "devices: ")


class OpticalPath(Record):
    """Loss-relevant inventory of one laser-to-detector path."""

    length_mm: NonNeg
    mrs_passed: NonNegInt = 0
    drop_stages: NonNegInt = 0
    split_fanout: Count = 1
    couplers: NonNegInt = 0

    def __post_init__(self) -> None:
        check_fields(self)


def pcmc_transfer(state: PcmcState) -> tuple[float, float]:
    """(bar, cross) power fractions; bar + cross = 10^(-excess_loss/10)."""
    through = 10.0 ** (-state.excess_loss_db / 10.0)
    if state.phase == CRYSTALLINE:
        return through, 0.0
    if state.phase == AMORPHOUS:
        return 0.0, through
    return (1.0 - state.t) * through, state.t * through


def pcmc_for_split(target_cross: float, excess_loss_db: float = 0.0) -> PcmcState:
    """State whose pre-loss cross fraction equals target_cross; a target
    outside [0, 1] is a partial state the state itself rejects."""
    if target_cross == 0.0:
        return PcmcState(CRYSTALLINE, excess_loss_db=excess_loss_db)
    if target_cross == 1.0:
        return PcmcState(AMORPHOUS, excess_loss_db=excess_loss_db)
    return PcmcState(PARTIAL, t=target_cross, excess_loss_db=excess_loss_db)


def path_insertion_loss(path: OpticalPath, params: DeviceParams) -> float:
    """dB along the path: couplers, propagation, passed MRs, drops, and an
    ideal 1/N split plus per-stage excess on a binary splitter tree."""
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
    """Seconds to clock ``bits`` through n_wavelengths parallel OOK lanes. The engine's
    ``_photonic`` applies this rule inline as ``bits / bw``, its lanes the slower endpoint's
    lit gateways times the wavelengths, with ``bw = lit * (n_wavelengths * rate_bps)``: the
    same rule, but the product is associated otherwise, so the last bit may differ."""
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
