"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
import random
from contextlib import contextmanager

import pytest

from cpsim import replace
from cpsim.cli import cli_main
from cpsim.devices import (DeviceParams, OpticalPath, PcmcState, pcmc_transfer,
                           path_insertion_loss, required_laser_power, serialization_time,
                           source_mw)
from cpsim.engine import EpochController, RunMetrics, simulate_model
from cpsim.mapper import chunks_per_dot, map_model
from cpsim.platform import DEFAULT_MAC_TYPES, default_platform
from cpsim.report import LabeledRun, comparison_table
from cpsim.workload import DnnModelSpec, LayerSpec, load_shipped_model, param_count

LARGE_MODELS = ("resnet50", "densenet121", "vgg16", "mobilenetv2")


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number} ({description}): FAIL")
        raise
    print(f"criterion {number} ({description}): PASS")


def test_criterion_1_platform_golden():
    with criterion(1, "default platform configuration golden"):
        topo = default_platform()
        assert topo.platform.n_wavelengths == 64
        assert topo.platform.link_rate_bps == 12e9
        assert topo.platform.gateway_freq_hz == 2e9
        assert topo.platform.noc_width_bits == 128
        assert topo.platform.noc_freq_hz == 2e9
        assert len(topo.memory_chiplets()) == 1
        compute = topo.compute_chiplets()
        assert len(compute) == 8
        mix = {}
        for c in compute:
            mix.setdefault(c.mac_type.name, []).append((c.macs, c.macs_per_gateway))
        assert sorted(mix["dense100"]) == [(4, 1)] * 2
        assert sorted(mix["conv7x7"]) == [(8, 2)]
        assert sorted(mix["conv5x5"]) == [(16, 4)] * 2
        assert sorted(mix["conv3x3"]) == [(44, 11)] * 3
        assert {t.vector_len for t in DEFAULT_MAC_TYPES.values()} == {9, 25, 49, 100}


def test_criterion_2_model_descriptor_golden():
    with criterion(2, "shipped descriptor parameter counts"):
        expected = {
            "lenet5": (62_006, 3, 2),
            "resnet50": (25_636_712, 53, 1),
            "densenet121": (8_062_504, 120, 1),
            "vgg16": (138_357_544, 13, 3),
            "mobilenetv2": (3_538_984, 52, 1),
        }
        for name, (total, n_conv, n_fc) in expected.items():
            model = load_shipped_model(name)
            assert param_count(model) == total
            assert sum(1 for l in model.layers if l.kind == "conv") == n_conv
            assert sum(1 for l in model.layers if l.kind == "fc") == n_fc


def _published_run(power_w, latency_ms, epb_nj):
    latency = latency_ms * 1e-3
    energy = power_w * latency
    epb = epb_nj * 1e-9
    return RunMetrics(latency, energy, {}, power_w, int(round(energy / epb)),
                      energy / int(round(energy / epb)), ())


def test_criterion_3_published_ratio_consistency():
    with criterion(3, "published power/latency pairs reproduce stated ratios"):
        runs = [
            LabeledRun("siph", "avg", _published_run(89.7, 1.21, 1.3)),
            LabeledRun("elec", "avg", _published_run(45.3, 41.4, 20.5)),
            LabeledRun("mono", "avg", _published_run(50.8, 8.0, 3.6)),
        ]
        rows = {r.platform: r for r in comparison_table(runs, "siph") if not r.summary}
        assert rows["elec"].normalized_latency == pytest.approx(34.0, abs=0.5)
        assert rows["elec"].normalized_epb == pytest.approx(15.8, abs=0.3)
        assert rows["mono"].normalized_latency == pytest.approx(6.6, abs=0.2)
        assert rows["mono"].normalized_epb == pytest.approx(2.8, abs=0.2)


def test_criterion_4_trend_reproduction(sweep):
    with criterion(4, "latency/EPB/power trends with default calibration"):
        for name in LARGE_MODELS:  # every shipped model above 1M parameters
            siph = sweep[(name, "siph_interposer")]
            elec = sweep[(name, "elec_interposer")]
            mono = sweep[(name, "monolithic")]
            assert siph.total_latency_s < mono.total_latency_s < elec.total_latency_s
            assert siph.avg_power_w > elec.avg_power_w
        ratio = {name: (sweep[(name, "elec_interposer")].epb_j_per_bit
                        / sweep[(name, "siph_interposer")].epb_j_per_bit)
                 for name in ("lenet5", "vgg16")}
        assert ratio["lenet5"] < ratio["vgg16"]


def test_criterion_5_energy_identities(sweep):
    with criterion(5, "power*latency and EPB*bits identities"):
        for metrics in sweep.values():
            assert metrics.avg_power_w * metrics.total_latency_s == pytest.approx(
                metrics.total_energy_j, rel=1e-9)
            assert metrics.epb_j_per_bit * metrics.total_bits == pytest.approx(
                metrics.total_energy_j, rel=1e-9)


def test_criterion_6_device_model_properties():
    with criterion(6, "device-model properties"):
        rng = random.Random(2024)
        phases = ("crystalline", "partially_crystalline", "amorphous")
        for _ in range(10_000):
            state = PcmcState(rng.choice(phases), t=rng.random(),
                              excess_loss_db=rng.uniform(0.0, 6.0))
            bar, cross = pcmc_transfer(state)
            total = bar + cross
            assert bar >= 0.0 and cross >= 0.0
            assert total == pytest.approx(10 ** (-state.excess_loss_db / 10), rel=1e-12)
            assert total <= 1.0 + 1e-12

        params = DeviceParams()
        for il in (0.0, 3.7, 12.0):
            base = required_laser_power(
                [source_mw(OpticalPath(il / params.propagation_loss_db_per_mm), params)],
                64, params)
            up = required_laser_power(
                [source_mw(OpticalPath((il + 3.0103) / params.propagation_loss_db_per_mm),
                           params)], 64, params)
            assert up / base == pytest.approx(2.0, rel=1e-6)

        for _ in range(500):
            bits = rng.randrange(0, 1 << 44)
            lanes, rate = rng.randint(1, 256), rng.choice((1e9, 12e9, 32e9))
            assert serialization_time(bits, lanes, rate) * (lanes * rate) == pytest.approx(
                bits, rel=1e-15, abs=0.0)

        for _ in range(500):
            a = OpticalPath(rng.uniform(0, 40), rng.randint(0, 256), rng.randint(0, 4),
                            1, rng.randint(0, 3))
            b = OpticalPath(rng.uniform(0, 40), rng.randint(0, 256), rng.randint(0, 4),
                            1, rng.randint(0, 3))
            joined = OpticalPath(a.length_mm + b.length_mm, a.mrs_passed + b.mrs_passed,
                                 a.drop_stages + b.drop_stages, 1, a.couplers + b.couplers)
            assert path_insertion_loss(joined, params) == pytest.approx(
                path_insertion_loss(a, params) + path_insertion_loss(b, params), rel=1e-12)


def test_criterion_7_controller_properties(cfg):
    with criterion(7, "epoch controller properties"):
        topo = default_platform()
        controller = EpochController(topo, cfg.devices)
        writer = {gw: (c.id, k) for c in topo.chiplets for k, gw in enumerate(c.gateway_ids())}
        rng = random.Random(99)
        gw_bw = topo.platform.n_wavelengths * topo.platform.link_rate_bps
        for _ in range(100):
            demand = {c.id: rng.uniform(0, 5e12) for c in topo.chiplets}
            controller.resize(controller.lit_counts(
                {cid: math.ceil(d / gw_bw) for cid, d in demand.items()}))
            for c in topo.chiplets:
                wanted = math.ceil(demand[c.id] / gw_bw)
                assert controller.active[c.id] == max(1, min(wanted, c.gateways))
            lit = [r.path for r in topo.routes
                   if writer[r.writer_gateway][1] < controller.active[writer[r.writer_gateway][0]]]
            assert controller.laser_w == pytest.approx(
                required_laser_power([source_mw(p, cfg.devices) for p in lit],
                                     topo.platform.n_wavelengths, cfg.devices), rel=1e-12)

        layers = (LayerSpec(0, "conv", 3, 3, 8, 16, 8, 8, 8, 8),
                  LayerSpec(1, "fc", 1, 1, 64, 10, 1, 1, 1, 1))
        toy = DnnModelSpec("toy2", layers, sum(l.params() for l in layers))
        plan = map_model(toy, topo)
        enabled = simulate_model(toy, topo, plan, cfg.devices, cfg.options)
        disabled = simulate_model(toy, topo, plan, cfg.devices,
                                  replace(cfg.options, resipi_enabled=False))
        idle_enabled = EpochController(topo, cfg.devices)
        idle_enabled.resize(idle_enabled.lit_counts({}))
        idle_disabled = EpochController(topo, cfg.devices)
        assert idle_disabled.laser_w >= idle_enabled.laser_w
        assert (disabled.energy_breakdown["laser"] / disabled.total_latency_s
                >= enabled.energy_breakdown["laser"] / enabled.total_latency_s)


def test_criterion_8_mapping_oracle():
    with criterion(8, "invocation counts equal per-output enumeration"):
        layers = []
        for kernel in (1, 3, 5, 7):
            for cin in (1, 2, 3, 4):
                for cout in (1, 2, 3, 4):
                    for out_h in (1, 2, 4):
                        for out_w in (1, 3, 4):
                            layers.append(LayerSpec(len(layers), "conv", kernel, kernel,
                                                    cin, cout, 4, 4, out_h, out_w))
        for mac in DEFAULT_MAC_TYPES.values():
            for layer in layers:
                enumerated = 0
                for _ in range(layer.out_h):
                    for _ in range(layer.out_w):
                        for _ in range(layer.out_channels):
                            enumerated += math.ceil(layer.dot_length / mac.vector_len)
                assert (layer.dot_products
                        * chunks_per_dot(layer.dot_length, mac.vector_len)) == enumerated

        # the mapper's own assignments agree with the enumeration as well
        topo = default_platform()
        model = DnnModelSpec("grid", tuple(layers), sum(l.params() for l in layers))
        plan = map_model(model, topo)
        for layer, assignment in zip(model.layers, plan.assignments):
            enumerated = layer.dot_products * math.ceil(
                layer.dot_length / assignment.mac_type.vector_len)
            assert assignment.invocations == enumerated


def test_criterion_9_byte_identical_sweeps(tmp_path):
    with criterion(9, "full compare sweep is byte-identical across runs"):
        args = ["compare", "--models", "all", "--platforms", "siph,elec,mono",
                "--baseline", "mono", "--format", "csv"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(args + ["--out", str(first)]) == 0
        assert cli_main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        json_first, json_second = tmp_path / "a.json", tmp_path / "b.json"
        json_args = args[:-1] + ["json"]
        assert cli_main(json_args + ["--out", str(json_first)]) == 0
        assert cli_main(json_args + ["--out", str(json_second)]) == 0
        assert json_first.read_bytes() == json_second.read_bytes()
