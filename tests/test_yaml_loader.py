"""Both YAML loaders: libyaml's C parser and the pure-Python fallback.

cpsim parses every user descriptor and config with ``config.YAML_LOADER``,
chosen on first use. These tests switch that one attribute, so the fallback
stays pinned on a machine that has libyaml; the C half is skipped where
PyYAML was built without it. The shipped descriptors and the default config
are JSON text, parsed with ``json.loads``: they must load the same under all
three parsers, and importing or running cpsim on them alone must not import
PyYAML.

A descriptor in the documented form (``key: value`` lines and one flow
mapping per layer) is read by ``workload.read_documented_form`` without
PyYAML. The parity tests below hold it to what both YAML loaders load from
the same text, on drawn texts of that form and near misses of it.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsim import config
from cpsim.cli import cli_main
from cpsim.config import ConfigError, load_config, parse_config
from cpsim.workload import (DescriptorError, load_model, load_model_file, read_documented_form,
                            shipped_model_names)

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"
SRC = ROOT / "src"
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


# a user's descriptor in block style, with comments: not the documented form
BLOCK_STYLE = ("# a user's model\n"
               "name: tiny\n"
               "declared_param_count: 1010   # 100 * 10 + 10\n"
               "layers:\n"
               "  - kind: fc\n"
               "    channels_in: 100\n"
               "    channels_out: 10\n")


def readme_example() -> str:
    """The descriptor shown in the README's "Model descriptors" section."""
    readme = (ROOT / "README.md").read_text("utf-8")
    return re.search(r"## Model descriptors\n.*?```yaml\n(.*?)```", readme, re.S)[1]


def generated_texts(seeds):
    """``bench/gen.py``'s descriptor texts for each seed."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return [text for seed in seeds for text in gen.generate(seed)]


def cpsim_env() -> dict:
    """The environment of a child Python that imports cpsim from this checkout."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


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
    proc = subprocess.run([sys.executable, "-c", code, os.devnull], env=cpsim_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[False, False, False]", proc.stdout


def test_documented_form_does_not_import_yaml(tmp_path):
    """A user descriptor in the documented form is read without PyYAML; the
    same model in block style goes through PyYAML and prints the same bytes."""
    code = """if True:
        import sys
        import cpsim.cli
        for argv in (["validate", sys.argv[1]],
                     ["simulate", "--model", sys.argv[1], "--platform", "siph"]):
            assert cpsim.cli.cli_main(argv) == 0
        print("yaml" in sys.modules)
    """
    text = readme_example()
    twins = {"documented.desc": text,
             "block.desc": yaml.safe_dump(yaml.safe_load(text), sort_keys=False)}
    outputs = {}
    for name, twin in twins.items():
        (tmp_path / name).write_text(twin, "utf-8")
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / name)],
                              env=cpsim_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outputs[name] = proc.stdout.rsplit("\n", 2)
    assert read_documented_form(twins["block.desc"]) is None
    assert outputs["documented.desc"][1] == "False" and outputs["block.desc"][1] == "True"
    assert outputs["documented.desc"][0] == outputs["block.desc"][0]


def test_user_files_are_yaml(loader, tmp_path, capsys):
    """Comments and block style, which JSON has not: user files keep YAML."""
    desc = tmp_path / "tiny.desc"
    desc.write_text(BLOCK_STYLE, "utf-8")
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


@pytest.mark.parametrize("spelling", ["010", "1:40", "1_000", "0x1F", "0b11", "-010"])
def test_only_decimal_integers_load_as_ints(loader, tmp_path, capsys, spelling):
    """YAML 1.1 would read these as 8, 100, 1000, 31, 3 and -8 with no word. cpsim
    reads them as strings, so the field check rejects them by name, exit 1:
    in a descriptor PyYAML reads (the documented-form reader declines them)
    and in a config. Decimal integers, signed or not, still load as ints."""
    assert config.safe_load(f"[{spelling}, 10, +10, -0, 0]", ConfigError, "test") == [
        spelling, 10, 10, 0, 0]
    desc = tmp_path / "spelled.desc"
    desc.write_text("name: spelled\ndeclared_param_count: 90\nlayers:\n"
                    f"- {{kind: fc, channels_in: {spelling}, channels_out: 10}}\n", "utf-8")
    assert read_documented_form(desc.read_text("utf-8")) is None
    assert cli_main(["validate", str(desc)]) == 1
    assert capsys.readouterr().err == (
        f"error: layer 0: in_channels must be an integer, got {spelling!r}\n")
    cfg = tmp_path / "spelled.yaml"
    cfg.write_text(f"options: {{router_latency_cycles: {spelling}}}\n", "utf-8")
    assert cli_main(["simulate", "--model", "lenet5", "--platform", "elec",
                     "--config", str(cfg)]) == 1
    assert f"router_latency_cycles must be an integer, got {spelling!r}" in capsys.readouterr().err


# Parity of read_documented_form with both YAML loaders. A text is a few
# lines of the documented form with near misses put in: a token replaced, or
# a line or a character inserted, each leaving the form or staying just
# inside it. The reader must decline the text or read it as PyYAML does.
WORDS = ["name", "layers", "kind", "conv", "fc", "_", "k9", "none", "Yes_", "nullx", "y", "n"]
SCALARS = st.one_of(st.integers(0, 10 ** 20).map(str), st.sampled_from(WORDS))
VALUES = st.one_of(SCALARS, st.builds("[{}, {}]".format, SCALARS, SCALARS))
KEYS = st.sampled_from(WORDS[:5])   # few keys, so some repeat
COMMENTS = st.sampled_from(["", "", " # c", "   # a: b, [x]", " #", " # c\tc"])
ITEMS = st.builds("- {{{}}}{}".format, st.lists(st.builds("{}: {}".format, KEYS, VALUES),
                                                max_size=4).map(", ".join), COMMENTS)
BLOCKS = st.one_of(
    st.builds("{}: {}{}".format, KEYS, VALUES, COMMENTS),
    st.builds(lambda key, comment, items: "\n".join([f"{key}:{comment}", *items]),
              KEYS, COMMENTS, st.lists(ITEMS, max_size=3)),
    st.sampled_from(["", "# note", "#"]))
TOKEN = re.compile(r"[A-Za-z0-9_]+")
NEAR_MISSES = {
    "token": ["yes", "No", "ON", "off", "null", "Null", "TRUE", "false", "~", "010", "0x1F",
              "0o7", "1_000", "+3", "-3", "1:30", "3.0", ".inf", "1e3", "2001-12-14", "'q'",
              '"q"', "&a 1", "*a", "b#c", "b # c", "{}", "[]", "[1, 2, 3]", "[1,2]", "a: b",
              "<<", "=", "!!str 1", ""],
    "line": ["---", "...", "%YAML 1.1", "  # indented", " ", "\t", "- {}", "-", "- ",
             "- {a: 1}", "  - {a: 1}", "- {a: 1,b: 2}", "- { a: 1 }", "- {a: 1} # c", "a: b: c",
             "a: 1   ", "a:  1", "a:\t1", "a:", "\ufeffname: x", "# \u00e9", "# c\x85name: x",
             "a: 1 # c\rb: 2", "a: 1 # c\u2028b: 2"],
    "char": ["\t", "\r", "\r\n", "\x0c", "\x85", "\u2028", "\xa0", " ", "\ufeff", "\x00",
             "\u00e9", ":", "#", ",", "-"],
}


def places(text: str, how: str) -> int:
    """How many tokens, lines or characters of ``text`` a near miss may go at."""
    return {"token": len(TOKEN.findall(text)), "line": text.count("\n") + 2,
            "char": len(text) + 1}[how]


def with_near_miss(text: str, how: str, place: int, near: str) -> str:
    """``text`` with its ``place``-th token replaced by ``near``, or ``near``
    inserted before its ``place``-th line or character."""
    if how == "token":
        start, end = list(TOKEN.finditer(text))[place].span()
        return text[:start] + near + text[end:]
    if how == "line":
        lines = text.split("\n")
        lines.insert(place, near)
        return "\n".join(lines)
    return text[:place] + near + text[place:]


def read_as_yaml(text: str, loader_name: str) -> bool:
    """Whether the reader read ``text``; if it did, it read what PyYAML loads."""
    doc = read_documented_form(text)
    if doc is not None:
        loaded = yaml.load(text, Loader=getattr(yaml, loader_name))
        assert loaded == doc and repr(loaded) == repr(doc), text
    return doc is not None


@st.composite
def near_form_texts(draw):
    text = "\n".join(draw(st.lists(BLOCKS, max_size=5))) + draw(st.sampled_from(["", "\n"]))
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(sorted(NEAR_MISSES)))
        if places(text, how):
            text = with_near_miss(text, how, draw(st.integers(0, places(text, how) - 1)),
                                  draw(st.sampled_from(NEAR_MISSES[how])))
    return text


@pytest.mark.parametrize("name", LOADERS)
@settings(max_examples=300, deadline=None)
@given(near_form_texts())
def test_reader_loads_what_yaml_loads(name, text):
    read_as_yaml(text, name)


@pytest.mark.parametrize("name", LOADERS)
def test_reader_loads_what_yaml_loads_with_each_near_miss(name):
    base = "# a model\nlayers:\n- {kind: conv, kernel: [3, 4]} # x: 1\nname: a # c\n"
    assert read_as_yaml(base, name)
    read = [read_as_yaml(with_near_miss(base, how, place, near), name)
            for how, nears in NEAR_MISSES.items()
            for place in range(places(base, how)) for near in nears]
    assert 0 < sum(read) < len(read)


@pytest.mark.parametrize("name", LOADERS)
def test_reader_loads_what_yaml_loads_on_pair_free_layer_lines(name):
    """A layer line with no [a, b] pair is split, not scanned again: near
    misses of such a line, and a few texts pinned, read as YAML reads them."""
    base = ("layers:\n- {kind: fc, channels_in: 10, stride: 1} # x: 1\n"
            "- {kind: conv, kernel: [3, 4]}\nname: a # c\n")
    assert read_as_yaml(base, name)
    read = [read_as_yaml(with_near_miss(base, how, place, near), name)
            for how, nears in NEAR_MISSES.items()
            for place in range(places(base, how)) for near in nears]
    assert 0 < sum(read) < len(read)
    for layer in ("{}", "{a: 1, b: x, a: 2}", "{a: [1, 2], b: x, a: 3}", "{a: [3, kind]}",
                  "{a: 0, b: 123456789012345678901}"):
        assert read_as_yaml(f"layers:\n- {layer}\n", name), layer


@pytest.mark.parametrize("name", LOADERS)
def test_reader_reads_the_readme_example_and_generated_models(name):
    texts = [readme_example(), *generated_texts((1, 2, 3))]
    assert len(texts) == 73
    for text in texts:
        assert read_as_yaml(text, name), text


def test_reader_leaves_json_and_block_style_to_yaml():
    for name, text in shipped_texts():
        assert read_documented_form(text) is None, name
    assert read_documented_form(BLOCK_STYLE) is None
