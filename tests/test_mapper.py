import math

import pytest

from cpsim.mapper import MappingError, chunks_per_dot, map_model, select_mac_type
from cpsim.platform import DEFAULT_MAC_TYPES, PlatformTopology, default_platform
from cpsim.workload import DnnModelSpec, LayerSpec, load_shipped_model

TYPES = list(DEFAULT_MAC_TYPES.values())


def conv_layer(kh, kw=None, cin=3, index=0):
    kw = kw or kh
    return LayerSpec(index, "conv", kh, kw, cin, 4, 8, 8, 8, 8)


def fc_layer(fin=100, fout=10, index=0):
    return LayerSpec(index, "fc", 1, 1, fin, fout, 1, 1, 1, 1)


# ---------------------------------------------------------- type selection


def test_select_conv3x3_exact_fit():
    assert select_mac_type(conv_layer(3), TYPES).name == "conv3x3"


def test_select_fc_prefers_dense():
    assert select_mac_type(fc_layer(), TYPES).name == "dense100"


def test_select_oversized_conv_falls_back_to_largest():
    assert select_mac_type(conv_layer(11), TYPES).name == "dense100"


def test_select_next_size_up():
    # no exact conv fit: 4x4 window rides the 5x5 units
    assert select_mac_type(conv_layer(4), TYPES).name == "conv5x5"
    assert select_mac_type(conv_layer(6), TYPES).name == "conv7x7"
    assert select_mac_type(conv_layer(1), TYPES).name == "conv3x3"


def test_select_fc_without_dense_types():
    conv_only = [t for t in TYPES if t.family == "conv"]
    assert select_mac_type(fc_layer(), conv_only).name == "conv7x7"


def test_select_is_total_and_deterministic():
    layers = [conv_layer(kh, kw) for kh in (1, 2, 3, 5, 7, 9) for kw in (1, 3, 7)]
    layers += [fc_layer(fin) for fin in (1, 50, 100, 5000)]
    for layer in layers:
        first = select_mac_type(layer, TYPES)
        assert select_mac_type(layer, list(reversed(TYPES))) is not None
        assert select_mac_type(layer, TYPES).name == first.name


# --------------------------------------------------------------- chunking


@pytest.mark.parametrize("dot,vlen,expected", [(49, 49, 1), (49, 9, 6), (1, 100, 1)])
def test_chunks_per_dot_examples(dot, vlen, expected):
    assert chunks_per_dot(dot, vlen) == expected


def test_chunks_monotone_in_vector_len():
    for dot in (1, 9, 27, 121, 4096):
        previous = None
        for vlen in (1, 9, 25, 49, 100, 200):
            chunks = chunks_per_dot(dot, vlen)
            if previous is not None:
                assert chunks <= previous
            previous = chunks


# -------------------------------------------------------------- map_model


def test_map_lenet5_fc_layers():
    topo = default_platform()
    model = load_shipped_model("lenet5")
    plan = map_model(model, topo)
    fc_assignments = [a for a, l in zip(plan.assignments, model.layers) if l.kind == "fc"]
    assert all(a.mac_type.name == "dense100" for a in fc_assignments)
    assert all(a.total_macs == 8 for a in fc_assignments)
    assert all(set(a.chiplet_ids) == {"dense0", "dense1"} for a in fc_assignments)


def test_map_conv3x3_spans_all_three_chiplets():
    topo = default_platform()
    layer = LayerSpec(0, "conv", 3, 3, 16, 8, 8, 8, 8, 8)
    model = DnnModelSpec("toy", (layer,), layer.params())
    plan = map_model(model, topo)
    a = plan.assignments[0]
    assert a.total_macs == 132
    assert set(a.chiplet_ids) == {"conv3a", "conv3b", "conv3c"}
    assert chunks_per_dot(layer.dot_length, 9) == 16
    assert a.invocations == layer.dot_products * 16


def test_map_rejects_platform_without_compute():
    # build_topology refuses compute-less configs outright, so hand-build one
    base = default_platform()
    memory_only = PlatformTopology(base.platform, chiplets=tuple(base.memory_chiplets()),
                                   routes=(), mrgs=(), mesh_dims=base.mesh_dims)
    model = DnnModelSpec("toy", (fc_layer(),), fc_layer().params())
    with pytest.raises(MappingError):
        map_model(model, memory_only)


def test_map_preserves_order_and_covers_every_layer():
    topo = default_platform()
    model = load_shipped_model("resnet50")
    plan = map_model(model, topo)
    assert plan.model_name == "resnet50"
    assert [a.layer_index for a in plan.assignments] == [l.index for l in model.layers]


def test_invocations_match_enumeration_on_small_grid():
    for vlen in (9, 25, 49, 100):
        mac = next(t for t in TYPES if t.vector_len == vlen)
        for kernel in (1, 3):
            for cin in (1, 2, 4):
                for out_hw in (1, 2, 4):
                    layer = LayerSpec(0, "conv", kernel, kernel, cin, 3, 4, 4, out_hw, out_hw)
                    enumerated = 0
                    for _ in range(layer.out_h * layer.out_w * layer.out_channels):
                        enumerated += math.ceil(layer.dot_length / mac.vector_len)
                    chunks = chunks_per_dot(layer.dot_length, mac.vector_len)
                    assert layer.dot_products * chunks == enumerated
