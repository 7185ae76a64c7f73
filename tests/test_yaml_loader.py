"""Both YAML loaders: libyaml's C parser and the pure-Python fallback.

cpsim parses every descriptor and config with ``config.YAML_LOADER``, chosen
once at import. These tests switch that one attribute, so the fallback stays
pinned on a machine that has libyaml; the C half is skipped where PyYAML was
built without it.
"""

from pathlib import Path

import pytest
import yaml

from cpsim import config
from cpsim.cli import cli_main
from cpsim.config import ConfigError, default_config, parse_config
from cpsim.workload import DescriptorError, load_model, load_shipped_model, shipped_model_names

GOLDEN = Path(__file__).parent / "golden"
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


def test_c_loader_is_the_default_when_available():
    assert config.YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@NO_LIBYAML
def test_loaders_load_equal_models_and_config(monkeypatch):
    loaded = []
    for cls in (yaml.CSafeLoader, yaml.SafeLoader):
        monkeypatch.setattr(config, "YAML_LOADER", cls)
        loaded.append(([load_shipped_model(n) for n in shipped_model_names()],
                       default_config()))
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
    out = tmp_path / "compare_all.csv"
    assert cli_main(["compare", "--models", "all", "--format", "csv", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "compare_all.csv").read_bytes()
    assert len(parsed) == 6   # the default config and five descriptors, each once


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
