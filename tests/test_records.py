"""The record contract: checked records are built, frozen, compared, hashed
and printed by one ``Record`` base, ``replace`` checks a changed copy again,
and ``SimOptions`` stays the one dataclass, which ``dataclasses.replace``
still derives options from."""

import dataclasses
import importlib
import inspect
import json
import pkgutil
from importlib import resources

import pytest

import cpsim
from cpsim import (DeviceParams, OpticalPath, SimOptions, build_topology, default_config,
                   default_platform, load_shipped_model, map_model, replace, with_kind)
from cpsim.config import ConfigError, PlatformSettings, config_from_doc


@pytest.fixture(scope="module")
def topology():
    return build_topology(with_kind(default_config(), "siph"))


@pytest.mark.parametrize("record", [OpticalPath(1.0), DeviceParams(), PlatformSettings(),
                                    map_model(load_shipped_model("lenet5"), default_platform())])
def test_fields_can_be_neither_assigned_nor_deleted(record):
    name = record._fields[0]
    before = repr(record)
    with pytest.raises(AttributeError, match=name):
        setattr(record, name, 2.0)
    with pytest.raises(AttributeError, match=name):
        delattr(record, name)
    assert repr(record) == before


def test_replace_checks_the_copy_again(cfg):
    with pytest.raises(ValueError, match="devices: laser_efficiency"):
        replace(cfg.devices, laser_efficiency=0.0)
    with pytest.raises(ConfigError, match="platform: grid_rows"):
        replace(cfg.platform, grid_rows=0)
    assert replace(cfg.devices, coupler_loss_db=2.0).coupler_loss_db == 2.0
    assert replace(cfg.devices) == cfg.devices and replace(cfg.devices) is not cfg.devices


@pytest.mark.parametrize("build, message", [
    (lambda: OpticalPath(1.0, bogus=1), r"unexpected keyword arguments \['bogus'\]"),
    (lambda: OpticalPath(1.0, length_mm=2.0), r"multiple values for \['length_mm'\]"),
    (lambda: OpticalPath(), r"missing required arguments \['length_mm'\]"),
    (lambda: OpticalPath(1.0, 0, 0, 1, 0, 0), "takes 5 arguments, got 6"),
    (lambda: replace(OpticalPath(1.0), bogus=1), r"unexpected keyword arguments \['bogus'\]"),
])
def test_bad_constructor_arguments_are_a_type_error(build, message):
    with pytest.raises(TypeError, match=message):
        build()


def test_positional_and_keyword_arguments_build_the_same_record():
    assert OpticalPath(2.0, 3, 1) == OpticalPath(length_mm=2.0, drop_stages=1, mrs_passed=3)
    assert repr(OpticalPath(2.0)) == ("OpticalPath(length_mm=2.0, mrs_passed=0, drop_stages=0, "
                                      "split_fanout=1, couplers=0)")


def test_equal_paths_hash_equal_and_key_one_dict_entry():
    a, b = OpticalPath(3.5, 64, 1, 2, 1), OpticalPath(3.5, 64, 1, 2, 1)
    assert a == b and a is not b and hash(a) == hash(b)
    assert {a: "first", b: "second"} == {a: "second"}
    assert OpticalPath(3.5, 64, 1, 2, 0) != a
    assert a != (3.5, 64, 1, 2, 1)   # a record equals only a record of its own class


def test_cached_pricing_is_not_a_field(topology):
    assert topology.pricing == [None]
    assert "pricing" not in repr(topology)
    assert "pricing" not in topology._fields
    assert replace(topology) == topology
    assert replace(topology).pricing is not topology.pricing


def test_dataclasses_replace_still_derives_checked_sim_options():
    options = dataclasses.replace(SimOptions(), resipi_enabled=False, overlap=False)
    assert type(options) is SimOptions
    assert (options.resipi_enabled, options.overlap) == (False, False)
    with pytest.raises(ConfigError, match="options: epoch_s"):
        dataclasses.replace(options, epoch_s=0.0)
    assert replace(options, overlap=True) == dataclasses.replace(options, overlap=True)


def test_sim_options_is_the_only_dataclass():
    """Every other record is a Record or a named tuple, which import builds
    without generating code; a new dataclass would show here."""
    found = set()
    for info in pkgutil.walk_packages(cpsim.__path__, "cpsim."):
        module = importlib.import_module(info.name)
        found |= {f"{info.name}.{name}" for name, obj in inspect.getmembers(module, inspect.isclass)
                  if obj.__module__ == info.name and dataclasses.is_dataclass(obj)}
    assert found == {"cpsim.config.SimOptions"}


def test_shipped_config_restates_the_record_defaults():
    """The default config's platform, devices and options sections list
    exactly their record's fields, each equal to its default in value and
    type, so the records' defaults alone rebuild the shipped config."""
    doc = json.loads(resources.files("cpsim.data").joinpath("default_platform.yaml")
                     .read_text("utf-8"))
    for section, cls in (("platform", PlatformSettings), ("devices", DeviceParams),
                         ("options", SimOptions)):
        assert list(doc[section]) == list(cls.__annotations__), section
        default = cls()
        for name, value in doc[section].items():
            expect = getattr(default, name)
            assert (value, type(value)) == (expect, type(expect)), f"{section}.{name}"
    assert config_from_doc({"chiplets": doc["chiplets"]}) == default_config()
