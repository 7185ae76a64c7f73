import math
import random

import pytest

from cpsim.cli import cli_main
from cpsim.workload import (DescriptorError, DnnModelSpec, LayerSpec, ModelValidationError,
                            layer_traffic, load_model, load_shipped_model, param_count,
                            shipped_model_names)

# Independently tabulated per-layer parameter counts (hand-computed from the
# layer dims before the loader existed); the loader must reproduce them.
LENET5_LAYER_PARAMS = [456, 2416, 48120, 10164, 850]
VGG16_LAYER_PARAMS = [
    1792, 36928, 73856, 147584, 295168, 590080, 590080, 1180160,
    2359808, 2359808, 2359808, 2359808, 2359808,
    102764544, 16781312, 4097000,
]

PUBLISHED_TOTALS = {
    "lenet5": 62_006,
    "resnet50": 25_636_712,
    "densenet121": 8_062_504,
    "vgg16": 138_357_544,
    "mobilenetv2": 3_538_984,
}


def conv(index=0, kh=3, kw=3, cin=1, cout=1, in_hw=8, out_hw=8, **kw_args):
    return LayerSpec(index, "conv", kh, kw, cin, cout, in_hw, in_hw, out_hw, out_hw, **kw_args)


def fc(index=0, fin=100, fout=10, **kw_args):
    return LayerSpec(index, "fc", 1, 1, fin, fout, 1, 1, 1, 1, **kw_args)


def model_of(*layers):
    return DnnModelSpec("toy", tuple(layers), sum(l.params() for l in layers))


# ----------------------------------------------------------- param_count


def test_param_count_single_fc():
    assert param_count(model_of(fc(fin=100, fout=10))) == 1_010


def test_param_count_unit_conv():
    assert param_count(model_of(conv(kh=1, kw=1, cin=1, cout=1))) == 2


def test_param_count_resnet50_matches_published():
    assert param_count(load_shipped_model("resnet50")) == 25_636_712


def test_lenet5_per_layer_params():
    model = load_shipped_model("lenet5")
    assert [l.params() for l in model.layers] == LENET5_LAYER_PARAMS
    assert sum(LENET5_LAYER_PARAMS) == 62_006


def test_vgg16_per_layer_params():
    model = load_shipped_model("vgg16")
    assert [l.params() for l in model.layers] == VGG16_LAYER_PARAMS
    assert sum(VGG16_LAYER_PARAMS) == 138_357_544


@pytest.mark.parametrize("name,total", sorted(PUBLISHED_TOTALS.items()))
def test_shipped_descriptors_validate(name, total):
    model = load_shipped_model(name)
    assert param_count(model) == total == model.declared_param_count


def test_shipped_model_listing():
    assert set(shipped_model_names()) == set(PUBLISHED_TOTALS)


def test_param_count_permutation_invariant():
    layers = [conv(0, cin=3, cout=8), conv(1, cin=8, cout=16), fc(2, fin=64, fout=10)]
    shuffled = [layers[2], layers[0], layers[1]]
    assert param_count(model_of(*layers)) == param_count(model_of(*shuffled))


def test_param_count_monotone_in_out_channels():
    base = param_count(model_of(conv(cin=4, cout=8)))
    for cout in (9, 12, 64):
        assert param_count(model_of(conv(cin=4, cout=cout))) > base
        base = param_count(model_of(conv(cin=4, cout=cout)))


# ---------------------------------------------------------- layer_traffic


def test_traffic_conv_example():
    layer = conv(kh=3, kw=3, cin=3, cout=64, in_hw=224, out_hw=224)
    t = layer_traffic(layer)
    assert t.weight_bits == (3 * 3 * 3 * 64 + 64) * 8 == 14_336
    assert t.input_bits == 224 * 224 * 3 * 8 == 1_204_224
    assert t.output_bits == 224 * 224 * 64 * 8 == 25_690_112
    assert t.dot_length == 27
    assert t.dot_products == 224 * 224 * 64


def test_traffic_fc_example():
    t = layer_traffic(fc(fin=100, fout=10))
    assert t.weight_bits == 8_080
    assert t.input_bits == 800
    assert t.output_bits == 80
    assert t.dot_length == 100
    assert t.dot_products == 10


def test_traffic_unit_output():
    layer = conv(cin=2, cout=1, in_hw=4, out_hw=1, weight_bitwidth=1, activation_bitwidth=1)
    assert layer_traffic(layer).output_bits == 1


def test_traffic_bitwidth_linearity():
    narrow = conv(cin=3, cout=5, in_hw=6, out_hw=6, activation_bitwidth=4)
    wide = conv(cin=3, cout=5, in_hw=6, out_hw=6, activation_bitwidth=8)
    tn, tw = layer_traffic(narrow), layer_traffic(wide)
    assert tw.input_bits == 2 * tn.input_bits
    assert tw.output_bits == 2 * tn.output_bits
    assert tw.weight_bits == tn.weight_bits


def test_model_total_bits_single_fc():
    assert model_of(fc(fin=100, fout=10)).total_bits == 8_960


def test_model_total_bits_lenet5_spreadsheet():
    # per-layer (weight, input, output) bits tabulated by hand at bw=8
    expected = [
        (3_648, 24_576, 37_632),
        (19_328, 9_408, 12_800),
        (384_960, 3_200, 960),
        (81_312, 960, 672),
        (6_800, 672, 80),
    ]
    model = load_shipped_model("lenet5")
    for layer, (w, i, o) in zip(model.layers, expected):
        t = layer_traffic(layer)
        assert (t.weight_bits, t.input_bits, t.output_bits) == (w, i, o)
    assert model.total_bits == sum(sum(row) for row in expected) == 587_008


def test_model_traffic_is_each_layers_and_not_a_field():
    """A model's traffic is layer_traffic of each layer, worked out once and
    kept; equality and repr see only the declared fields."""
    model = load_shipped_model("lenet5")
    assert model.traffic == tuple(layer_traffic(layer) for layer in model.layers)
    assert model.traffic is model.traffic
    assert model == load_shipped_model("lenet5")
    assert "traffic" not in repr(model) and "total_bits" not in repr(model)


def brute_force_multiplies(layer):
    """Count multiplications one output element and one window slot at a
    time; dense conv/fc touches the full window per output."""
    count = 0
    for _ in range(layer.out_h):
        for _ in range(layer.out_w):
            for _ in range(layer.out_channels):
                for _ in range(layer.kernel_h):
                    for _ in range(layer.kernel_w):
                        for _ in range(layer.in_channels):
                            count += 1
    return count


def test_dot_geometry_matches_brute_force_count():
    rng = random.Random(7)
    for _ in range(50):
        layer = conv(
            kh=rng.randint(1, 4), kw=rng.randint(1, 4),
            cin=rng.randint(1, 4), cout=rng.randint(1, 4),
            in_hw=4, out_hw=rng.randint(1, 4),
        )
        t = layer_traffic(layer)
        assert t.dot_products * t.dot_length == brute_force_multiplies(layer)


# -------------------------------------------------------------- load_model


def test_load_model_rejects_zero_layers():
    with pytest.raises((DescriptorError, ModelValidationError)):
        load_model("name: empty\ndeclared_param_count: 0\nlayers: []\n")


def test_load_model_rejects_count_mismatch():
    text = (
        "name: bad\n"
        "declared_param_count: 9999\n"
        "layers:\n"
        "- {kind: fc, channels_in: 100, channels_out: 10}\n"
    )
    with pytest.raises(ModelValidationError, match="9999"):
        load_model(text)


def test_load_model_names_offending_layer():
    text = (
        "name: bad\n"
        "declared_param_count: 2\n"
        "layers:\n"
        "- {kind: conv, kernel: 1, channels_in: 1, channels_out: 1, in_hw: 4, out_hw: 9, stride: 1}\n"
    )
    with pytest.raises(ModelValidationError, match="layer 0"):
        load_model(text)


def test_model_built_in_code_is_validated_on_construction():
    """A library-built model is checked when built, so a negative channel
    count never reaches the mapper or the engine."""
    bad = LayerSpec(0, "conv", 3, 3, 8, -16, 8, 8, 8, 8)
    with pytest.raises(ModelValidationError, match="layer 0"):
        DnnModelSpec("neg", (bad,), 0)


@pytest.mark.parametrize("key, text, field, value", [
    ("channels_in", ".inf", "in_channels", math.inf),
    ("channels_in", ".nan", "in_channels", math.nan),
    ("channels_in", "3.9", "in_channels", 3.9),
    ("channels_in", "'8'", "in_channels", "8"),
    ("channels_in", "8.0", "in_channels", 8.0),
    ("stride", "true", "stride", True),
    ("kernel", "true", "kernel_h", True),
    ("weight_bitwidth", "8.5", "weight_bitwidth", 8.5),
    ("name", "null", "name", None),
])
def test_descriptor_values_are_taken_as_written(tmp_path, capsys, key, text, field, value):
    """A value is never coerced: one of the wrong type exits 1 naming the layer
    and the field, and the same value in a model built in code is rejected."""
    header = {"name": "probe", "declared_param_count": "1168"}
    entry = {"kind": "conv", "kernel": "3", "channels_in": "8", "channels_out": "16",
             "in_hw": "8", "out_hw": "8", "stride": "1"}
    (header if key == "name" else entry)[key] = text
    path = tmp_path / "probe.desc"
    path.write_text("".join(f"{k}: {v}\n" for k, v in header.items()) + "layers:\n- {"
                    + ", ".join(f"{k}: {v}" for k, v in entry.items()) + "}\n")
    assert cli_main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert field in err and (key == "name" or "layer 0" in err), err
    layer = LayerSpec(0, "conv", 3, 3, 8, 16, 8, 8, 8, 8)
    with pytest.raises(ModelValidationError, match=field):
        if key == "name":
            DnnModelSpec(value, (layer,), 1168)
        else:
            DnnModelSpec("probe", (layer._replace(**{field: value}),), 1168)


def test_load_model_rejects_unknown_keys():
    text = (
        "name: bad\n"
        "declared_param_count: 1010\n"
        "layers:\n"
        "- {kind: fc, channels_in: 100, channels_out: 10, groups: 4}\n"
    )
    with pytest.raises(DescriptorError, match="groups"):
        load_model(text)


@pytest.mark.parametrize("header, entry, where", [
    ("", ", 1: 2, bogus: 3", "layer 0: unknown keys"),
    ("1: 2\nbogus: 3\n", "", "unknown model keys"),
])
def test_unknown_keys_that_are_not_strings_exit_1(tmp_path, capsys, header, entry, where):
    """Unknown keys of mixed types are named, not compared with each other."""
    path = tmp_path / "keys.desc"
    path.write_text(f"name: keys\ndeclared_param_count: 1010\n{header}layers:\n"
                    f"- {{kind: fc, channels_in: 100, channels_out: 10{entry}}}\n")
    assert cli_main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{where} [1, 'bogus']" in err and "Traceback" not in err, err


def test_load_model_rejects_garbage():
    with pytest.raises(DescriptorError):
        load_model("{::: not yaml")
    with pytest.raises(DescriptorError):
        load_model("- just\n- a\n- list\n")
    fc = "layers:\n- {kind: fc, channels_in: 100, channels_out: 10}\n"
    for header, key in (("declared_param_count: [1010]\n", "declared_param_count"),
                        ("declared_param_count: true\n", "declared_param_count"),
                        ("declared_param_count: 1010\ndeclared_fc_layers: '1'\n",
                         "declared_fc_layers"),
                        ("declared_param_count: 1010\ndeclared_conv_layers: 0.0\n",
                         "declared_conv_layers")):
        with pytest.raises(DescriptorError, match=key):
            load_model("name: bad\n" + header + fc)


def test_load_model_checks_declared_kind_counts():
    text = (
        "name: bad\n"
        "declared_param_count: 1010\n"
        "declared_conv_layers: 1\n"
        "declared_fc_layers: 0\n"
        "layers:\n"
        "- {kind: fc, channels_in: 100, channels_out: 10}\n"
    )
    with pytest.raises(ModelValidationError, match="declares"):
        load_model(text)


def test_load_model_bitwidth_defaults_and_range():
    text = (
        "name: ok\n"
        "declared_param_count: 1010\n"
        "layers:\n"
        "- {kind: fc, channels_in: 100, channels_out: 10}\n"
    )
    model = load_model(text)
    assert model.layers[0].weight_bitwidth == 8
    assert model.layers[0].activation_bitwidth == 8
    bad = text.replace("channels_out: 10}", "channels_out: 10, weight_bitwidth: 33}")
    with pytest.raises(ModelValidationError, match="bitwidth"):
        load_model(bad)
