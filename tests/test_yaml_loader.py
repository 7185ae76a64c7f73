"""Both YAML loaders: libyaml's C parser and the pure-Python fallback.

cpsim parses every user descriptor and config with ``config.YAML_LOADER``,
chosen on first use. These tests switch that one attribute, so the fallback
stays pinned on a machine that has libyaml; the C half is skipped where
PyYAML was built without it. The shipped descriptors and the default config
are JSON text, parsed with ``json.loads``: they must load the same under all
three parsers, and importing or running cpsim on them alone must not import
PyYAML.
"""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
import yaml

from cpsim import config
from cpsim.cli import cli_main
from cpsim.config import ConfigError, load_config, parse_config
from cpsim.workload import DescriptorError, load_model, load_model_file, shipped_model_names

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"
NO_LIBYAML = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
LOADERS = [
    pytest.param("SafeLoader", id="SafeLoader"),
    pytest.param("CSafeLoader", id="CSafeLoader", marks=NO_LIBYAML),
]


@pytest.fixture(params=LOADERS)
def loader(request, monkeypatch):
    cls = getattr(yaml, request.param)
    monkeypatch.setattr(config, "YAML_LOADER", cls)
    return cls


def shipped_texts():
    """(file name, text) of the default config and of every shipped descriptor."""
    data = resources.files("cpsim.data")
    texts = [("default_platform.yaml", data.joinpath("default_platform.yaml").read_text("utf-8"))]
    texts += [(f"{name}.desc", data.joinpath("models", f"{name}.desc").read_text("utf-8"))
              for name in shipped_model_names()]
    return texts


def test_c_loader_is_the_default_when_available():
    parse_config("{}")   # the first parse sets the loader
    assert config.YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@NO_LIBYAML
def test_loaders_load_equal_models_and_config(monkeypatch, tmp_path):
    for name, text in shipped_texts():   # user-file copies: a path takes the YAML path
        (tmp_path / name).write_text(text, "utf-8")
    loaded = []
    for cls in (yaml.CSafeLoader, yaml.SafeLoader):
        monkeypatch.setattr(config, "YAML_LOADER", cls)
        loaded.append(([load_model_file(str(tmp_path / f"{n}.desc"))
                        for n in shipped_model_names()],
                       load_config(str(tmp_path / "default_platform.yaml"))))
    (c_models, c_config), (py_models, py_config) = loaded
    assert len(c_models) == 5
    assert c_models == py_models and repr(c_models) == repr(py_models)
    assert c_config == py_config and repr(c_config) == repr(py_config)


def test_fallback_compare_matches_golden(tmp_path, monkeypatch):
    parsed = []

    class CountingSafeLoader(yaml.SafeLoader):
        def __init__(self, stream):
            parsed.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(config, "YAML_LOADER", CountingSafeLoader)
    # user-file copies of the six shipped documents: a path takes the YAML path
    for name, text in shipped_texts():
        (tmp_path / name).write_text(text, "utf-8")
    models = ",".join(str(tmp_path / f"{name}.desc") for name in shipped_model_names())
    out = tmp_path / "compare_all.csv"
    assert cli_main(["compare", "--models", models, "--config",
                     str(tmp_path / "default_platform.yaml"), "--format", "csv",
                     "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "compare_all.csv").read_bytes()
    assert len(parsed) == 6   # the config and five descriptors, each once


def test_shipped_files_load_equal_under_json_and_yaml(loader):
    """Same values and same int and float types (YAML 1.1 reads ``5e-06`` as
    a string), so a copy of a shipped file used as a user file builds the
    very model or config cpsim ships."""
    for name, text in shipped_texts():
        doc, loaded = json.loads(text), yaml.load(text, Loader=loader)
        assert loaded == doc and repr(loaded) == repr(doc), name


def test_shipped_data_does_not_import_yaml():
    code = """if True:
        import sys
        import cpsim.cli
        seen = ["yaml" in sys.modules]
        for argv in (["validate", "lenet5"],
                     ["compare", "--models", "all", "--out", sys.argv[1]]):
            assert cpsim.cli.cli_main(argv) == 0
            seen.append("yaml" in sys.modules)
        print(seen)
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code, os.devnull], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[False, False, False]", proc.stdout


def test_user_files_are_yaml(loader, tmp_path, capsys):
    """Comments and block style, which JSON has not: user files keep YAML."""
    desc = tmp_path / "tiny.desc"
    desc.write_text("# a user's model\n"
                    "name: tiny\n"
                    "declared_param_count: 1010   # 100 * 10 + 10\n"
                    "layers:\n"
                    "  - kind: fc\n"
                    "    channels_in: 100\n"
                    "    channels_out: 10\n", "utf-8")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("# two chiplets\n"
                   "chiplets:\n"
                   "  - id: mem\n"
                   "    role: memory\n"
                   "    gateways: 2\n"
                   "  - id: c0\n"
                   "    role: compute\n"
                   "    mac_type: dense100\n"
                   "    macs: 4\n"
                   "    macs_per_gateway: 1\n"
                   "options:\n"
                   "  epoch_s: 2.0e-6   # a YAML 1.1 float\n", "utf-8")
    for path in (desc, cfg):
        with pytest.raises(json.JSONDecodeError):
            json.loads(path.read_text("utf-8"))
    assert load_model_file(str(desc)).layers[0].in_channels == 100
    assert load_config(str(cfg)).options.epoch_s == 2e-6
    assert cli_main(["validate", str(desc)]) == 0
    assert capsys.readouterr().out == "1010 parameters OK\n"
    assert cli_main(["simulate", "--model", str(desc), "--platform", "siph",
                     "--config", str(cfg), "--out", str(tmp_path / "run.json")]) == 0


def test_bad_yaml_is_rejected(loader, tmp_path, capsys):
    # both parsers raise a YAMLError that gives the line and column
    with pytest.raises(DescriptorError, match=r"(?s)unparseable descriptor.*line 1, column 2"):
        load_model("{::: not yaml")
    with pytest.raises(ConfigError, match="unparseable config"):
        parse_config("platform: {kind: [siph_interposer\n")
    bad = tmp_path / "bad.yaml"
    bad.write_text("options:\n  overlap: true\n bad_indent: 1\n", "utf-8")
    assert cli_main(["simulate", "--model", "lenet5", "--platform", "siph",
                     "--config", str(bad)]) == 1
    assert "unparseable config" in capsys.readouterr().err
