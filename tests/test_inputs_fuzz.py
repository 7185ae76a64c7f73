"""Fuzz test of the CLI's exit-code contract, and two metamorphic relations.

Each contract example sets one field of the default config, or one field of
one lenet5 layer, to a value drawn from that field's domain as
``devices.field_schema`` declares it: inside the domain, outside its bound,
of another type, NaN, infinite or out of any physical scale. ``cli_main``
must return 0 or 1 and never raise; a value outside its domain exits 1 and
names its field; a run that exits 0 reports finite metrics that satisfy the
energy identities. Integers reach 2**40, far above any count the builder
accepts (``config.MAX_GATEWAYS`` caps the gateways of a chiplet).

The relations (Chen et al., "Metamorphic Testing: A Review of Challenges and
Opportunities", ACM CSUR 2018) compare two runs where no exact oracle
exists, over options and device values drawn from inside their domains.
"""

import contextlib
import copy
import io
import json
import math
from functools import cache
from importlib import resources

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpsim import build_topology, default_config, map_model, replace, simulate_model, with_kind
from cpsim.cli import cli_main
from cpsim.config import ChipletConfig, PlatformSettings, SimOptions
from cpsim.devices import DeviceParams, field_schema
from cpsim.workload import LayerSpec, load_shipped_model

DEFAULT = yaml.safe_load(resources.files("cpsim.data").joinpath("default_platform.yaml")
                         .read_text("utf-8"))
LENET5 = yaml.safe_load(resources.files("cpsim.data.models").joinpath("lenet5.desc")
                        .read_text("utf-8"))
SECTIONS = {"platform": PlatformSettings, "devices": DeviceParams, "options": SimOptions,
            "chiplets": ChipletConfig}
# descriptor key -> the LayerSpec field it sets (kernel, in_hw and out_hw set two)
LAYER_KEYS = {"kind": "kind", "kernel": "kernel_h", "channels_in": "in_channels",
              "channels_out": "out_channels", "in_hw": "in_h", "out_hw": "out_h",
              "stride": "stride", "weight_bitwidth": "weight_bitwidth",
              "activation_bitwidth": "activation_bitwidth"}
PLATFORMS = ("siph", "elec", "mono")
WRONG_TYPES = st.sampled_from([None, True, False, "3", "5e9", [1, 2, 3], {"a": 1}])
# NaN, infinities, and finite values whose products leave the float range
EXTREMES = st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 5e-324, -0.0])
DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def domain_of(cls, field):
    [domain] = [d for name, *d in field_schema(cls) if name == field]
    return domain


def values(domain):
    """Values for a field of ``domain``: in it, beyond its bound, or of another type."""
    accepted, _, test, _ = domain
    choices = getattr(test, "__self__", None)   # a choice domain tests with its frozenset
    if choices is not None:
        return st.one_of(st.sampled_from(sorted(choices)), WRONG_TYPES)
    return st.one_of(WRONG_TYPES, st.integers(-2, 2 ** 40), st.floats(-2.0, 64.0), EXTREMES)


def in_domain(domain, value):
    accepted, _, test, _ = domain
    return (type(value) in accepted
            and not (type(value) is float and not math.isfinite(value))
            and (test is None or test(value)))


def inside(domain):
    """Values of ``domain`` only, at magnitudes up to 64."""
    accepted, _, test, _ = domain
    choices = getattr(test, "__self__", None)
    if choices is not None:
        return st.sampled_from(sorted(choices))
    if bool in accepted:
        return st.booleans()
    base = (st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 64.0)) if float in accepted
            else st.integers(0, 64))
    return base if test is None else base.filter(test)


def built(cls):
    return st.builds(cls, **{name: inside(domain) for name, *domain in field_schema(cls)})


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_cli(argv):
    """(exit code, stderr) of ``cli_main``; an exception fails the example."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    return code, err.getvalue()


def assert_finite_and_consistent(path):
    doc = json.loads(path.read_text())
    totals = [doc["total_latency_s"], doc["total_energy_j"], doc["avg_power_w"],
              doc["epb_j_per_bit"], *doc["energy_breakdown"].values()]
    assert all(math.isfinite(v) for v in totals), totals
    energy = doc["total_energy_j"]
    assert doc["avg_power_w"] * doc["total_latency_s"] == pytest.approx(energy, rel=1e-9)
    assert doc["epb_j_per_bit"] * doc["total_bits"] == pytest.approx(energy, rel=1e-9)
    layers = doc["per_layer"]
    assert math.fsum(r["latency_s"] for r in layers) == pytest.approx(doc["total_latency_s"],
                                                                       rel=1e-9)
    for r in layers:
        assert r["latency_s"] >= max(r["compute_s"], r["read_s"], r["write_s"])
        assert all(v >= 0.0 for v in r["energy_j"].values())


def simulate(workdir, platform, config=None, model="lenet5"):
    out = workdir / "run.json"
    argv = ["simulate", "--model", model, "--platform", platform, "--out", str(out)]
    if config is not None:
        (workdir / "cfg.yaml").write_text(yaml.dump(config, Dumper=DUMPER))
        argv += ["--config", str(workdir / "cfg.yaml")]
    code, err = run_cli(argv)
    assert code in (0, 1), err
    if code == 0:
        assert_finite_and_consistent(out)
    return code, err


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_config_field_keeps_the_exit_code_contract(workdir, data):
    section = data.draw(st.sampled_from(sorted(SECTIONS)), label="section")
    name, *domain = data.draw(st.sampled_from(field_schema(SECTIONS[section])), label="field")
    value = data.draw(values(domain), label="value")
    config = copy.deepcopy(DEFAULT)
    if section == "chiplets":
        index = data.draw(st.integers(0, len(config["chiplets"]) - 1), label="chiplet")
        config["chiplets"][index][name] = value
    else:
        config[section][name] = value
    code, err = simulate(workdir, data.draw(st.sampled_from(PLATFORMS)), config)
    if not in_domain(domain, value):
        assert code == 1 and name in err, err


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_one_layer_field_keeps_the_exit_code_contract(workdir, data):
    descriptor = copy.deepcopy(LENET5)
    index = data.draw(st.integers(0, len(descriptor["layers"]) - 1), label="layer")
    key = data.draw(st.sampled_from(sorted(LAYER_KEYS)), label="key")
    domain = domain_of(LayerSpec, LAYER_KEYS[key])
    value = data.draw(values(domain), label="value")
    entry = descriptor["layers"][index]
    entry[key] = value
    if in_domain(domain, value):   # keep the declared total true, so the run may pass
        descriptor["declared_param_count"] = sum(
            e.get("kernel", 1) ** 2 * e["channels_in"] * e["channels_out"] + e["channels_out"]
            for e in descriptor["layers"])
    path = workdir / "model.desc"
    path.write_text(yaml.dump(descriptor, Dumper=DUMPER))
    code, err = simulate(workdir, data.draw(st.sampled_from(PLATFORMS)), model=str(path))
    if not in_domain(domain, value):
        assert code == 1 and f"layer {index}" in err, err
        assert key in err or LAYER_KEYS[key] in err, err


@pytest.mark.parametrize("section, field, value", [("devices", "coupler_loss_db", 1e300),
                                                   ("options", "weight_refetch_factor", 1e300),
                                                   ("options", "mac_rate_hz", 5e-324)])
def test_finite_values_that_overflow_a_run_exit_1(workdir, section, field, value):
    """A loss of 1e300 dB overflows the laser power, a refetch factor of 1e300
    the controller's gateway count, and a MAC rate of 5e-324 Hz the latency."""
    config = copy.deepcopy(DEFAULT)
    config[section][field] = value
    code, err = simulate(workdir, "siph", config)
    assert code == 1 and "out of float range" in err, err


@cache
def mapped(kind, model_name):
    model = load_shipped_model(model_name)
    topology = build_topology(with_kind(default_config(), kind))
    return model, topology, map_model(model, topology)


def layers_of(kind, model_name, params, options):
    """Per-layer results, or None when the drawn values leave the float range."""
    try:
        return simulate_model(*mapped(kind, model_name), params, options).per_layer
    except OverflowError:
        return None


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(PLATFORMS), st.sampled_from(["lenet5", "resnet50"]), built(DeviceParams),
       built(SimOptions))
def test_no_overlap_never_shortens_a_layer(kind, model_name, params, options):
    serial = layers_of(kind, model_name, params, replace(options, overlap=False))
    overlapped = layers_of(kind, model_name, params, replace(options, overlap=True))
    assume(serial is not None and overlapped is not None)
    for s, o in zip(serial, overlapped):
        assert s.layer_latency_s >= o.layer_latency_s


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(PLATFORMS), st.sampled_from(["lenet5", "resnet50"]), built(DeviceParams),
       built(SimOptions), st.floats(1.0, 64.0))
def test_higher_mac_rate_never_raises_compute_time(kind, model_name, params, options, factor):
    slow = layers_of(kind, model_name, params, options)
    fast = layers_of(kind, model_name, params,
                     replace(options, mac_rate_hz=options.mac_rate_hz * factor))
    assume(slow is not None and fast is not None)
    for s, f in zip(slow, fast):
        assert f.compute_s <= s.compute_s
