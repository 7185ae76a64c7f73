import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsim import replace
from cpsim.config import default_config, with_kind
from cpsim.mapper import (LayerAssignment, MappingError, MappingPlan, chunks_per_dot, map_model,
                          select_mac_type)
from cpsim.platform import (DEFAULT_MAC_TYPES, MacUnitType, PlatformTopology, build_topology,
                            default_platform)
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


def three_clause_select(layer, available):
    """The rule as first stated: fc to the largest dense type, else the
    largest overall; conv to an exact window fit among conv types, else the
    smallest conv type that fits, else the largest type overall."""
    by_len = sorted(available, key=lambda t: (t.vector_len, t.name))
    if layer.kind == "fc":
        dense = [t for t in by_len if t.family == "dense"]
        return max(dense or by_len, key=lambda t: t.vector_len)
    window = layer.kernel_h * layer.kernel_w
    conv = [t for t in by_len if t.family == "conv"]
    exact = [t for t in conv if t.vector_len == window]
    if exact:
        return exact[0]
    fitting = [t for t in conv if t.vector_len >= window]
    if fitting:
        return fitting[0]
    return max(by_len, key=lambda t: t.vector_len)


# few names and lengths, so ties, equal types and exact fits are common
MAC_TYPES = st.builds(MacUnitType, st.sampled_from(["a", "b", "conv3x3", "dense100"]),
                      st.sampled_from([1, 2, 4, 6, 9, 12, 16, 25, 49, 100]),
                      st.sampled_from(["conv", "dense"]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_select_picks_what_the_three_clause_rule_picks(data):
    """One fitting list picks the very type the exact-fit, next-fit and
    largest-overall clauses picked, duplicates in the list included."""
    available = data.draw(st.lists(MAC_TYPES, min_size=1, max_size=8), label="types")
    available += data.draw(st.lists(st.sampled_from(available), max_size=3), label="repeats")
    available = data.draw(st.permutations(available), label="order")
    if data.draw(st.booleans(), label="conv"):
        layer = conv_layer(data.draw(st.integers(1, 11)), data.draw(st.integers(1, 11)))
    else:
        layer = fc_layer(data.draw(st.integers(1, 5000)))
    assert select_mac_type(layer, available) is three_clause_select(layer, available)


# --------------------------------------------------------------- chunking


@pytest.mark.parametrize("dot,vlen,expected", [(49, 49, 1), (49, 9, 6), (1, 100, 1)])
def test_chunks_per_dot_examples(dot, vlen, expected):
    assert chunks_per_dot(dot, vlen) == expected


@pytest.mark.parametrize("call, error, message", [
    (lambda: chunks_per_dot(0, 9), ValueError, "dot length and vector length must be >= 1"),
    (lambda: select_mac_type(conv_layer(3), []), MappingError, "no MAC types available"),
], ids=["zero-dot-length", "no-mac-types"])
def test_bad_arguments_raise_their_messages(call, error, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert caught.type is error and str(caught.value) == message


def test_chunks_monotone_in_vector_len():
    for dot in (1, 9, 27, 121, 4096):
        previous = None
        for vlen in (1, 9, 25, 49, 100, 200):
            chunks = chunks_per_dot(dot, vlen)
            if previous is not None:
                assert chunks <= previous
            previous = chunks


def test_chunks_per_dot_is_exact_above_float_precision():
    """The ceiling is taken in integers: a float quotient rounds 9 * 2**50 + 1
    down to 9 * 2**50 and loses the last chunk."""
    assert chunks_per_dot(9 * 2**50 + 1, 9) == 2**50 + 1
    assert chunks_per_dot(9 * 2**50, 9) == 2**50
    for dot in (2**53 + 1, 3**40, 10**30 + 7):
        for vlen in (1, 9, 25, 49, 100):
            quotient, remainder = divmod(dot, vlen)
            assert chunks_per_dot(dot, vlen) == quotient + (remainder > 0)


def test_plan_invocations_are_exact_for_a_dot_length_above_2_53():
    topology = default_platform()
    [narrow] = map_model(DnnModelSpec("narrow", (fc_layer(),), 1010), topology).assignments
    vlen = narrow.mac_type.vector_len
    layer = fc_layer(fin=vlen * 2**55 + 1, fout=3)   # one element past 2**55 full chunks
    [wide] = map_model(DnnModelSpec("wide", (layer,), layer.params()), topology).assignments
    assert wide.mac_type == narrow.mac_type
    assert wide.invocations == 3 * (2**55 + 1)


# -------------------------------------------------------------- map_model


def reference_plan(model, topology):
    """The plan built layer by layer, with no placement shared between layers."""
    compute = topology.compute_chiplets()
    available = list(dict.fromkeys(c.mac_type for c in compute))
    rows = []
    for layer in model.layers:
        mac_type = select_mac_type(layer, available)
        chiplets = [c for c in compute if c.mac_type == mac_type]
        rows.append(LayerAssignment(layer.index, mac_type, tuple(c.id for c in chiplets),
                                    sum(c.macs for c in chiplets),
                                    layer.dot_products
                                    * chunks_per_dot(layer.dot_length, mac_type.vector_len)))
    return MappingPlan(model.name, tuple(rows))


@pytest.mark.parametrize("kind", ["siph", "elec", "mono"])
@pytest.mark.parametrize("name", ["lenet5", "resnet50", "densenet121", "vgg16", "mobilenetv2"])
def test_map_model_equals_a_layer_by_layer_reference(kind, name):
    """The column-wise plan is the one each layer gets on its own, record for
    record and of the same record types."""
    topology = build_topology(with_kind(default_config(), kind))
    model = load_shipped_model(name)
    plan = map_model(model, topology)
    assert plan == reference_plan(model, topology)
    assert type(plan) is MappingPlan
    assert {type(a) for a in plan.assignments} == {LayerAssignment}


@pytest.mark.parametrize("kind", ["siph", "elec"])
def test_map_model_keeps_topology_order_with_mac_types_interleaved(kind):
    """Chiplets of one MAC type that are not next to each other, and a chiplet
    whose vector_len makes it a type of its own between them: every pool keeps
    its chiplets in topology order, and the plan is the layer-by-layer one."""
    cfg = with_kind(default_config(), kind)
    by_id = {c.id: c for c in cfg.chiplets}
    order = ["mem0", "conv3a", "dense0", "conv5a", "conv3b", "dense1", "conv7a", "conv3c",
             "conv5b"]
    cfg = replace(cfg, chiplets=tuple(replace(by_id[cid], vector_len=64) if cid == "dense1"
                                      else by_id[cid] for cid in order))
    topology = build_topology(cfg)
    assert [c.id for c in topology.compute_chiplets()] == order[1:]
    pools = {}
    for name in ("lenet5", "resnet50", "densenet121", "vgg16", "mobilenetv2"):
        model = load_shipped_model(name)
        plan = map_model(model, topology)
        assert plan == reference_plan(model, topology)
        pools.update((a.mac_type, a.chiplet_ids) for a in plan.assignments)
    assert pools[DEFAULT_MAC_TYPES["conv3x3"]] == ("conv3a", "conv3b", "conv3c")
    assert pools[DEFAULT_MAC_TYPES["dense100"]] == ("dense0",)



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


@pytest.mark.parametrize("kind", ["siph_interposer", "elec_interposer"])
def test_chiplets_of_one_type_name_with_other_lanes_are_another_type(kind):
    """conv3c alone at 16 lanes is a type of its own: every chiplet an
    assignment names has the assignment's MAC type, vector length included."""
    cfg = with_kind(default_config(), kind)
    cfg = replace(cfg, chiplets=tuple(replace(c, vector_len=16) if c.id == "conv3c" else c
                                      for c in cfg.chiplets))
    topo = build_topology(cfg)
    for name in ("lenet5", "resnet50", "densenet121", "vgg16", "mobilenetv2"):
        model = load_shipped_model(name)
        for a in map_model(model, topo).assignments:
            assert {topo.chiplet(cid).mac_type for cid in a.chiplet_ids} == {a.mac_type}
            assert a.total_macs == sum(topo.chiplet(cid).macs for cid in a.chiplet_ids)
    resnet = load_shipped_model("resnet50")
    threes = [a for layer, a in zip(resnet.layers, map_model(resnet, topo).assignments)
              if (layer.kernel_h, layer.kernel_w) == (3, 3)]
    assert threes and {a.chiplet_ids for a in threes} == {("conv3a", "conv3b")}
    assert {a.mac_type.vector_len for a in threes} == {9}


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
