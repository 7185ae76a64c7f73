import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

from cpsim import engine
from cpsim.cli import _build_parser, cli_main
from cpsim.config import (MAX_GATEWAYS, ChipletConfig, ConfigError, SimOptions, parse_config,
                          with_kind)
from cpsim.devices import pcmc_for_split
from cpsim.engine import RunMetrics
from cpsim.platform import build_topology
from cpsim.report import (LabeledRun, comparison_table, emit_report, reference_rows,
                          render_report)


def metrics_of(power_w, latency_s, epb_j_per_bit):
    energy = power_w * latency_s
    bits = int(round(energy / epb_j_per_bit))
    return RunMetrics(latency_s, energy, {"laser": energy}, power_w, bits,
                      energy / bits, ())


def runs_for(model="vgg16"):
    return [
        LabeledRun("siph", model, metrics_of(89.7, 1.21e-3, 1.3e-9)),
        LabeledRun("elec", model, metrics_of(45.3, 41.4e-3, 20.5e-9)),
        LabeledRun("mono", model, metrics_of(50.8, 8.0e-3, 3.6e-9)),
    ]


# --------------------------------------------------------- comparison_table


def test_latency_ratio_example():
    rows = comparison_table(runs_for(), baseline="siph")
    elec = next(r for r in rows if r.platform == "elec" and not r.summary)
    assert elec.normalized_latency == pytest.approx(41.4 / 1.21, rel=1e-9)
    assert elec.normalized_latency == pytest.approx(34.2, abs=0.05)


def test_epb_ratio_example():
    rows = comparison_table(runs_for(), baseline="siph")
    mono = next(r for r in rows if r.platform == "mono" and not r.summary)
    assert mono.normalized_epb == pytest.approx(3.6 / 1.3, rel=1e-6)
    assert mono.normalized_epb == pytest.approx(2.77, abs=0.01)


def test_single_run_self_baseline():
    rows = comparison_table(runs_for()[:1], baseline="siph")
    data = [r for r in rows if not r.summary]
    assert len(data) == 1
    assert data[0].normalized_power == data[0].normalized_latency == 1.0
    assert data[0].normalized_epb == 1.0


def test_unknown_baseline_rejected():
    with pytest.raises(ValueError, match="baseline"):
        comparison_table(runs_for(), baseline="tpu")
    with pytest.raises(ValueError) as caught:
        comparison_table([], "mono")
    assert caught.type is ValueError and str(caught.value) == "no runs to compare"


def test_geomean_matches_direct_computation():
    runs = runs_for("a") + runs_for("b") + runs_for("c")
    # perturb model b and c so the ratios differ per model
    runs[4] = LabeledRun("elec", "b", metrics_of(45.3, 60e-3, 22e-9))
    runs[8] = LabeledRun("mono", "c", metrics_of(50.8, 4e-3, 2.9e-9))
    rows = comparison_table(runs, baseline="siph")
    for platform in ("elec", "mono"):
        per_model = [r.normalized_latency for r in rows
                     if r.platform == platform and not r.summary]
        summary = next(r for r in rows if r.platform == platform and r.summary)
        assert summary.model == "geomean"
        assert summary.normalized_latency == pytest.approx(
            math.prod(per_model) ** (1 / len(per_model)), rel=1e-12)


def test_ratios_invariant_under_energy_rescale():
    def scaled(alpha):
        return [LabeledRun(r.platform, r.model,
                           metrics_of(r.metrics.avg_power_w * alpha,
                                      r.metrics.total_latency_s,
                                      r.metrics.epb_j_per_bit * alpha))
                for r in runs_for()]

    base = comparison_table(scaled(1.0), baseline="siph")
    bumped = comparison_table(scaled(7.5), baseline="siph")
    for a, b in zip(base, bumped):
        assert a.normalized_power == pytest.approx(b.normalized_power, rel=1e-12)
        assert a.normalized_latency == pytest.approx(b.normalized_latency, rel=1e-12)
        assert a.normalized_epb == pytest.approx(b.normalized_epb, rel=1e-12)


def test_zero_baseline_metric_is_rejected_naming_baseline_model_and_metric():
    """A ratio against a baseline metric of 0 has no value: the table names
    the baseline, the model and the first such metric."""
    for metric in ("avg_power_w", "total_latency_s", "epb_j_per_bit"):
        runs = runs_for("a") + runs_for("b")
        base = runs[5].metrics
        runs[5] = runs[5]._replace(metrics=base._replace(**{metric: 0.0}))
        with pytest.raises(ValueError) as caught:
            comparison_table(runs, baseline="mono")
        assert str(caught.value) == (f"baseline 'mono' has {metric} 0 for model 'b': "
                                     "nothing to normalize by")


def test_compare_against_a_zero_energy_baseline_exits_1(tmp_path, capsys):
    """With every mono energy term set to 0.0, each in its domain, the mono
    baseline draws no power: compare exits 1 naming it, with no traceback."""
    doc = default_config_doc()
    doc["devices"].update(mr_tuning_mw=0.0, dac_energy_pj=0.0, adc_energy_pj=0.0)
    doc["platform"]["offchip_energy_pj_per_bit"] = 0.0
    config = write_yaml(tmp_path / "zero.yaml", doc)
    assert cli_main(["compare", "--models", "lenet5", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: baseline 'monolithic' has avg_power_w 0 for model "
                            "'lenet5': nothing to normalize by\n")


def test_baseline_missing_model_rejected():
    runs = runs_for("a") + [LabeledRun("elec", "b", metrics_of(45.3, 60e-3, 22e-9))]
    with pytest.raises(ValueError, match="no run for model"):
        comparison_table(runs, baseline="siph")


def test_duplicate_pair_rejected():
    runs = runs_for("a") + [LabeledRun("elec", "a", metrics_of(45.3, 60e-3, 22e-9))]
    with pytest.raises(ValueError, match="'elec', 'a'"):
        comparison_table(runs, baseline="siph")


# ------------------------------------------------------------- emit_report


def test_csv_structure(tmp_path):
    rows = comparison_table(runs_for(), baseline="siph")
    out = tmp_path / "report.csv"
    emit_report(rows, "csv", str(out))
    lines = out.read_text().splitlines()
    assert lines[0].startswith("platform,model,power_w,latency_s,epb_j_per_bit,")
    assert len(lines) == 1 + len(rows)


def test_emit_is_byte_stable(tmp_path):
    rows = comparison_table(runs_for(), baseline="siph") + reference_rows()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(rows, "csv", str(a))
    emit_report(rows, "csv", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_json_round_trip(tmp_path):
    rows = comparison_table(runs_for(), baseline="siph")
    out = tmp_path / "report.json"
    emit_report(rows, "json", str(out))
    parsed = json.loads(out.read_text())["rows"]
    assert len(parsed) == len(rows)
    emitted = render_report(rows, "json")
    reparsed = json.loads(emitted)["rows"]
    for first, second in zip(parsed, reparsed):
        for key, value in first.items():
            if isinstance(value, float):
                assert abs(value - second[key]) <= 1e-12 * max(1.0, abs(value))
            else:
                assert value == second[key]


def test_reference_rows_are_flagged_and_skip_geomeans():
    refs = reference_rows()
    assert all(r.reference_only for r in refs)
    assert any(r.platform == "Nvidia P100 GPU" for r in refs)
    rows = comparison_table(runs_for(), baseline="siph")
    assert all(not r.reference_only for r in rows)


def test_emit_rejects_empty_and_unknown_format(tmp_path):
    rows = comparison_table(runs_for(), baseline="siph")
    with pytest.raises(ValueError):
        emit_report([], "csv", str(tmp_path / "x.csv"))
    with pytest.raises(ValueError):
        emit_report(rows, "xml", str(tmp_path / "x.xml"))


# -------------------------------------------------------------------- CLI


def test_validate_shipped_model(capsys):
    assert cli_main(["validate", "lenet5"]) == 0
    assert capsys.readouterr().out.strip() == "62006 parameters OK"


def test_validate_bad_descriptor(tmp_path, capsys):
    bad = tmp_path / "bad.desc"
    bad.write_text("name: bad\ndeclared_param_count: 5\nlayers:\n"
                   "- {kind: fc, channels_in: 100, channels_out: 10}\n")
    assert cli_main(["validate", str(bad)]) == 1
    assert "error" in capsys.readouterr().err
    assert cli_main(["validate", str(tmp_path / "absent.desc")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_simulate_requires_model(capsys):
    assert cli_main(["simulate", "--platform", "siph"]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli_main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv", [["--help"], ["compare", "--help"]])
def test_help_is_success(argv, capsys):
    assert cli_main(argv) == 0
    assert "usage: cpsim" in capsys.readouterr().out


PARSER_REUSE_CALLS = (["compare", "--epoch-us", "soon"],   # a usage error
                      ["--help"],
                      ["compare", "--no-overlap", "--epoch-us", "5"],
                      ["compare"])


def test_reusing_the_parser_leaks_no_state(capsys):
    """The parser is built once per process: each call's exit code and output
    are the same whichever calls ran before it, and on a parser built afresh."""
    def run(argv):
        code = cli_main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    forward = [run(argv) for argv in PARSER_REUSE_CALLS]
    backward = [run(argv) for argv in reversed(PARSER_REUSE_CALLS)][::-1]
    fresh = []
    for argv in PARSER_REUSE_CALLS:
        _build_parser.cache_clear()
        fresh.append(run(argv))
    assert forward == backward == fresh
    usage, help_text, no_overlap, plain = forward
    assert [usage[0], help_text[0], no_overlap[0], plain[0]] == [2, 0, 0, 0]
    assert "invalid float value: 'soon'" in usage[2] and help_text[1].startswith("usage: cpsim")
    assert no_overlap[1] != plain[1]   # the flags of one call do not stay for the next


def test_python_m_cpsim_runs_the_cli_and_importing_it_does_not():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")) if p))
    for argv, out in ((["-c", "import cpsim.__main__"], ""),
                      (["-m", "cpsim", "validate", "lenet5"], "62006 parameters OK\n")):
        proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                              text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, ""), argv


def test_simulate_json_output(tmp_path):
    out = tmp_path / "run.json"
    code = cli_main(["simulate", "--model", "lenet5", "--platform", "siph",
                     "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["model"] == "lenet5"
    assert doc["platform"] == "siph_interposer"
    assert len(doc["per_layer"]) == 5
    assert doc["total_energy_j"] == pytest.approx(
        sum(sum(l["energy_j"].values()) for l in doc["per_layer"]), rel=1e-9)


def test_simulate_flags_change_results(tmp_path):
    base, serial = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["simulate", "--model", "lenet5", "--platform", "siph",
                     "--format", "json", "--out", str(base)]) == 0
    assert cli_main(["simulate", "--model", "lenet5", "--platform", "siph", "--no-overlap",
                     "--no-resipi", "--epoch-us", "1", "--format", "json",
                     "--out", str(serial)]) == 0
    a = json.loads(base.read_text())
    b = json.loads(serial.read_text())
    assert b["total_latency_s"] != a["total_latency_s"]


def test_compare_baseline_must_be_swept(capsys):
    assert cli_main(["compare", "--models", "lenet5", "--platforms", "siph,elec",
                     "--baseline", "mono"]) == 2


def test_compare_unknown_platform(capsys):
    assert cli_main(["compare", "--models", "lenet5", "--platforms", "siph,quantum"]) == 2


def test_compare_with_no_model_named_is_usage_error(capsys):
    assert cli_main(["compare", "--models", ","]) == 2
    err = capsys.readouterr().err
    assert err.endswith("cpsim: error: nothing to sweep: need at least one model and one "
                        "platform\n"), err


def test_compare_emits_geomeans_and_references(tmp_path):
    out = tmp_path / "cmp.csv"
    code = cli_main(["compare", "--models", "lenet5,vgg16", "--platforms", "siph,elec,mono",
                     "--baseline", "siph", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.count("geomean") == 3
    assert "Nvidia P100 GPU" in text
    baseline_rows = [l for l in text.splitlines() if l.startswith("siph_interposer,")]
    assert all(",1," in row or row.endswith(",1,false") for row in baseline_rows)


def test_compare_env_var_config(tmp_path, monkeypatch):
    custom = tmp_path / "cfg.yaml"
    # one-chiplet platform: still a valid sweep target
    custom.write_text(
        "chiplets:\n"
        "  - {id: mem, role: memory, gateways: 2}\n"
        "  - {id: c0, role: compute, mac_type: conv5x5, macs: 8, macs_per_gateway: 2}\n"
    )
    monkeypatch.setenv("CPS_CONFIG", str(custom))
    out = tmp_path / "cmp.csv"
    assert cli_main(["compare", "--models", "lenet5", "--platforms", "siph,mono",
                     "--baseline", "mono", "--out", str(out)]) == 0
    assert "siph_interposer,lenet5" in out.read_text()


def test_compare_rejects_duplicate_pairs(tmp_path, capsys, monkeypatch):
    simulated = []
    monkeypatch.setattr(engine, "simulate_model", lambda *a, **k: simulated.append(a))
    fc = "- {kind: fc, channels_in: 100, channels_out: %d}\n"
    for name, fout in (("a", 10), ("b", 20)):
        (tmp_path / f"{name}.desc").write_text(
            f"name: x\ndeclared_param_count: {101 * fout}\nlayers:\n" + fc % fout)
    models = f"{tmp_path / 'a.desc'},{tmp_path / 'b.desc'}"
    assert cli_main(["compare", "--models", models, "--platforms", "siph,mono"]) == 1
    assert "('monolithic', 'x')" in capsys.readouterr().err
    assert cli_main(["compare", "--models", "lenet5", "--platforms", "siph,siph,mono"]) == 1
    assert "('siph_interposer', 'lenet5')" in capsys.readouterr().err
    assert simulated == []  # rejected from the labels, before any simulation


def test_topology_dump(tmp_path):
    out = tmp_path / "topo.json"
    assert cli_main(["topology", "--platform", "siph", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["total_mrs"] == 6400
    assert len(doc["routes"]) == 36
    assert len(doc["chiplets"]) == 9


def test_missing_config_file_is_failure(tmp_path, capsys):
    assert cli_main(["simulate", "--model", "lenet5", "--platform", "siph",
                     "--config", "/nonexistent/cfg.yaml"]) == 1
    for epoch in ("0", "nan", "inf"):
        assert cli_main(["simulate", "--model", "lenet5", "--platform", "siph",
                         "--epoch-us", epoch]) == 1
        assert "epoch_s" in capsys.readouterr().err
    for section, field in (("devices", "pcm_transition_s"), ("options", "weight_refetch_factor"),
                           ("options", "pcmc_switch_energy_pj")):
        bad = tmp_path / f"{field}.yaml"
        bad.write_text(f"{section}: {{{field}: .nan}}\n")
        assert cli_main(["simulate", "--model", "lenet5", "--platform", "siph",
                         "--config", str(bad)]) == 1
        assert field in capsys.readouterr().err


@pytest.mark.parametrize("text, field", [
    ("options: {mac_rate_hz: 5e9}", "mac_rate_hz"),      # YAML 1.1 reads a string
    ('platform: {n_wavelengths: "64"}', "n_wavelengths"),
    ("platform: {grid_rows: 3.0}", "grid_rows"),
    ("options: {gateway_overhead_cycles: true}", "gateway_overhead_cycles"),
    ('options: {overlap: "no"}', "overlap"),
    ("options: {resipi_enabled: 0}", "resipi_enabled"),
    ("devices: {laser_efficiency: true}", "laser_efficiency"),
    ("options: {demand_mode: 1}", "demand_mode"),
    ("chiplets: [{id: 7, role: memory, gateways: 4}]", "id"),
    ("options: {pcmc_switch_energy_pj: -1.0e+12}", "pcmc_switch_energy_pj"),
    ("options: {gateway_overhead_cycles: -400000}", "gateway_overhead_cycles"),
    ("options: {router_latency_cycles: -1}", "router_latency_cycles"),
])
def test_mistyped_or_negative_config_value_is_failure(tmp_path, capsys, text, field):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text + "\n")
    assert cli_main(["simulate", "--model", "lenet5", "--platform", "siph",
                     "--config", str(bad)]) == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("text, where", [
    ("platform: {1: 2, bogus: 3}", "platform: unknown keys [1, 'bogus']"),
    ("1: 2\nbogus: 3", "config: unknown keys [1, 'bogus']"),
    ("chiplets: [{id: m, role: memory, gateways: 4, 1: 2, bogus: 3}]",
     "chiplets[0]: unknown keys [1, 'bogus']"),
    ("devices: {1: 2, bogus: 3}", "devices: unknown keys [1, 'bogus']"),
    ("options: {1: 2, bogus: 3}", "options: unknown keys [1, 'bogus']"),
    ("- platform", "config: expected a mapping, got list"),
    ("platform: []", "platform: expected a mapping, got list"),   # not an empty mapping
    ("chiplets: 0", "chiplets section must be a list"),
    ("chiplets: [memory]", "chiplets[0]: expected a mapping, got str"),
    ("devices: 5", "devices: expected a mapping, got int"),
    ("options: bogus", "options: expected a mapping, got str"),
    ("chiplets: [{role: memory, gateways: 4}]", "chiplets[0]: missing keys ['id']"),
])
def test_unknown_keys_that_are_not_strings_are_failure(tmp_path, capsys, text, where):
    """Every level of a config is read by one reader: a value that is not a
    mapping, unknown keys of mixed types and a missing key are named, and
    unknown keys are not compared with each other."""
    bad = tmp_path / "bad.yaml"
    bad.write_text(text + "\n")
    assert cli_main(["simulate", "--model", "lenet5", "--platform", "siph",
                     "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err, err


def test_unsigned_exponent_message_suggests_a_yaml_float():
    with pytest.raises(ConfigError, match=r"options: mac_rate_hz .*'5e9'.*5\.0e\+9"):
        parse_config("options: {mac_rate_hz: 5e9}")
    # an int is a number; the loaded value keeps its type
    assert parse_config("options: {mac_rate_hz: 5000000000}").options.mac_rate_hz == 5e9


def test_float_spelling_advice_is_for_yaml_configs_only(tmp_path, capsys):
    """The advice on writing a float in YAML comes with a YAML config, and
    never with a record built in Python."""
    bad = tmp_path / "bad.yaml"
    bad.write_text("options: {mac_rate_hz: 5e9}\n")
    assert cli_main(["simulate", "--model", "lenet5", "--platform", "siph",
                     "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "mac_rate_hz" in err and "5.0e+9" in err and "Traceback" not in err, err
    for build, field in ((lambda: SimOptions(mac_rate_hz="5e9"), "mac_rate_hz"),
                         (lambda: pcmc_for_split("x"), "t")):
        with pytest.raises(ValueError, match=f"{field} must be a number") as exc:
            build()
        assert "YAML" not in str(exc.value) and "5.0e+9" not in str(exc.value)


def default_config_doc():
    from importlib import resources

    return yaml.safe_load(resources.files("cpsim.data").joinpath("default_platform.yaml")
                          .read_text("utf-8"))


def write_yaml(path, doc):
    path.write_text(yaml.safe_dump(doc, sort_keys=False), "utf-8")
    return path


def test_negative_vector_len_is_failure(tmp_path, capsys):
    doc = default_config_doc()
    [entry] = [c for c in doc["chiplets"] if c["id"] == "dense0"]
    assert entry == {"id": "dense0", "role": "compute", "mac_type": "dense100", "macs": 4,
                     "macs_per_gateway": 1}
    entry["vector_len"] = -5
    bad = write_yaml(tmp_path / "bad.yaml", doc)
    assert cli_main(["topology", "--config", str(bad), "--out", str(tmp_path / "t.json")]) == 1
    err = capsys.readouterr().err
    assert "dense0" in err and "vector_len" in err
    # 0 still means "take the vector length from the MAC-type registry"
    entry["vector_len"] = 0
    good = write_yaml(tmp_path / "good.yaml", doc)
    assert cli_main(["topology", "--config", str(good), "--out", str(tmp_path / "t.json")]) == 0


@pytest.mark.parametrize("chiplet, field, value", [("dense0", "gateways", 99),
                                                   ("mem0", "mac_type", "dense100"),
                                                   ("mem0", "macs_per_gateway", 2),
                                                   ("mem0", "vector_len", 9)])
def test_chiplet_field_of_the_other_role_is_failure(tmp_path, capsys, chiplet, field, value):
    """A field only the other role reads would be ignored without a word; it
    is rejected naming the chiplet and the field."""
    doc = default_config_doc()
    [entry] = [c for c in doc["chiplets"] if c["id"] == chiplet]
    entry[field] = value
    bad = write_yaml(tmp_path / "bad.yaml", doc)
    assert cli_main(["simulate", "--model", "lenet5", "--platform", "siph",
                     "--config", str(bad), "--out", str(tmp_path / "run.json")]) == 1
    err = capsys.readouterr().err
    assert f"chiplet '{chiplet}'" in err and field in err, err


@pytest.mark.parametrize("field, platform", [
    ("noc_router_static_w", "elec"),
    ("noc_energy_pj_per_bit_hop", "elec"),
    ("offchip_energy_pj_per_bit", "mono"),
])
@pytest.mark.parametrize("value", ["-5.0", ".nan", ".inf"])
def test_negative_or_nonfinite_platform_energy_is_failure(tmp_path, capsys, field, platform,
                                                          value):
    doc = default_config_doc()
    assert field in doc["platform"]
    doc["platform"][field] = yaml.safe_load(value)   # -5.0, nan or inf
    bad = write_yaml(tmp_path / "bad.yaml", doc)
    assert cli_main(["simulate", "--model", "lenet5", "--platform", platform,
                     "--config", str(bad), "--out", str(tmp_path / "run.json")]) == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("chiplet, changes, named", [
    ("mem0", {"gateways": 10 ** 9}, "gateways"),
    ("dense0", {"macs": 10 ** 12, "macs_per_gateway": 1}, "macs / macs_per_gateway"),
])
def test_gateway_count_above_the_cap_is_failure(tmp_path, capsys, chiplet, changes, named):
    """The builder wires one route per gateway (about 18 us each), so 10**9
    gateways would run for hours; the count is rejected before anything is built."""
    doc = default_config_doc()
    [entry] = [c for c in doc["chiplets"] if c["id"] == chiplet]
    entry.update(changes)
    bad = write_yaml(tmp_path / "bad.yaml", doc)
    start = time.perf_counter()
    assert cli_main(["simulate", "--model", "lenet5", "--platform", "siph",
                     "--config", str(bad), "--out", str(tmp_path / "run.json")]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"chiplet '{chiplet}'" in err and named in err and "MAX_GATEWAYS" in err, err


def test_gateway_cap_is_inclusive():
    assert MAX_GATEWAYS >= 64
    ChipletConfig("mem0", "memory", gateways=MAX_GATEWAYS)
    ChipletConfig("c0", "compute", "dense100", MAX_GATEWAYS * 2, 2)
    with pytest.raises(ConfigError, match="gateways"):
        ChipletConfig("mem0", "memory", gateways=MAX_GATEWAYS + 1)


@pytest.mark.parametrize("kind", ["siph", "elec"])
def test_interposer_without_a_memory_chiplet_fails_when_built(tmp_path, capsys, kind):
    """Both interposer kinds reject a config with no memory chiplet when the
    topology is built, so ``topology`` fails as ``simulate`` does; the
    monolithic chip has no interposer and runs."""
    doc = default_config_doc()
    doc["chiplets"] = [c for c in doc["chiplets"] if c["role"] == "compute"][:1]
    config = write_yaml(tmp_path / "compute_only.yaml", doc)
    for argv in (["topology", "--out", str(tmp_path / "t.json")],
                 ["simulate", "--model", "lenet5", "--out", str(tmp_path / "run.json")]):
        assert cli_main([*argv, "--platform", kind, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "needs at least one memory chiplet" in err and "Traceback" not in err
    assert cli_main(["simulate", "--model", "lenet5", "--platform", "mono", "--config",
                     str(config), "--out", str(tmp_path / "mono.json")]) == 0


MEMORY = "{id: mem0, role: memory, gateways: 4}"


@pytest.mark.parametrize("kind, chiplets, message", [
    ("siph", f"{MEMORY}, {{id: dense0, role: compute, mac_type: dense100, macs: 4}}",
     "chiplet 'dense0': compute chiplets need macs_per_gateway"),
    ("siph", f"{MEMORY}, {{id: dense0, role: compute, mac_type: conv9x9, macs: 4, "
             "macs_per_gateway: 1}",
     "chiplet 'dense0': unknown mac_type 'conv9x9' (register a vector_len to define a custom "
     "type)"),
    ("siph", MEMORY, "no compute chiplets configured"),
    ("elec", MEMORY, "no compute chiplets configured"),
], ids=["no-macs-per-gateway", "unregistered-mac-type", "siph-memory-only", "elec-memory-only"])
def test_chiplets_the_builder_cannot_wire_are_failure(tmp_path, capsys, kind, chiplets, message):
    """A compute chiplet with no MACs per gateway or an unregistered MAC type
    without a vector_len, and an interposer with no compute chiplet, raise a
    ConfigError with their message; the CLI exits 1 printing it."""
    text = f"chiplets: [{chiplets}]\n"
    with pytest.raises(ConfigError) as caught:
        build_topology(with_kind(parse_config(text), kind))
    assert caught.type is ConfigError and str(caught.value) == message
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    assert cli_main(["simulate", "--model", "lenet5", "--platform", kind, "--config", str(bad),
                     "--out", str(tmp_path / "run.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
