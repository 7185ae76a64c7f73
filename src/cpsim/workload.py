"""DNN model descriptors: loading, validation, and per-layer traffic volumes.

A model descriptor is a YAML document with a ``layers`` array. Only shapes
and bit-widths are represented; the simulator never sees tensor data. The
shipped descriptors (``data/models/*.desc``) are JSON text, which is also
YAML, and are parsed with ``json.loads``. A user's file in the documented
form (``key: value`` lines, one flow mapping per layer) is read by
``read_documented_form`` without PyYAML, into the document PyYAML would
load: each line is matched once, and a layer's entries are split out of the
matched text (a line holding an ``[a, b]`` pair is scanned for them once
more); any other user file is parsed as YAML. Every document goes through
``model_from_doc``, which makes every check.
``_layers_hold`` checks a model's layers a column at a time; only a model
that fails is checked layer by layer, by ``check_fields`` and ``_layers_hold``
on each layer alone, so the first bad layer's own check names it.
"""

from __future__ import annotations

import json
from functools import cache, cached_property
from itertools import chain, compress
from operator import gt
from typing import NamedTuple

from .config import read_keys, safe_load
from .devices import Bitwidth, Count, Name, NonNegInt, Record, check_fields, choice, fields_hold

DEFAULT_BITWIDTH = 8
LayerKind = choice("LayerKind", "conv", "fc")


class DescriptorError(ValueError):
    """Malformed descriptor text (unparseable or missing required keys)."""


class ModelValidationError(ValueError):
    """Structurally parseable descriptor that violates a model invariant."""


class LayerSpec(NamedTuple):
    """One conv or fc layer. fc layers use the 1x1-spatial convention:
    kernel and spatial dims are all 1, channels carry in/out features."""

    index: NonNegInt
    kind: LayerKind
    kernel_h: Count
    kernel_w: Count
    in_channels: Count
    out_channels: Count
    in_h: Count
    in_w: Count
    out_h: Count
    out_w: Count
    stride: Count = 1
    weight_bitwidth: Bitwidth = DEFAULT_BITWIDTH
    activation_bitwidth: Bitwidth = DEFAULT_BITWIDTH

    @property
    def dot_length(self) -> int:
        """Elements per dot product: the kernel window (conv) or in_features (fc)."""
        return self.kernel_h * self.kernel_w * self.in_channels

    @property
    def dot_products(self) -> int:
        """Dot products per layer invocation of the full output tensor."""
        return self.out_h * self.out_w * self.out_channels

    def params(self) -> int:
        """Weights plus one bias per output channel/feature."""
        return self.dot_length * self.out_channels + self.out_channels


class DnnModelSpec(Record):
    name: Name   # a cell of the comparison table, where the summary rows are "geomean"
    layers: tuple[LayerSpec, ...]
    declared_param_count: int

    def __post_init__(self) -> None:   # checked once, when built, never in the layer loop
        check_fields(self, ModelValidationError, f"model {self.name!r}: ")
        if not self.layers:
            raise ModelValidationError(f"model {self.name!r}: no layers")
        if not _layers_hold(self.layers):   # then the first bad layer raises, naming itself
            for layer in self.layers:
                where = f"layer {layer.index}: "
                check_fields(layer, ModelValidationError, where)
                if not _layers_hold((layer,)):   # its fields hold, so its geometry does not
                    raise ModelValidationError(where + (
                        f"conv output {layer.out_h}x{layer.out_w} exceeds input "
                        f"{layer.in_h}x{layer.in_w}" if layer.kind == "conv"
                        else "fc layers must use 1x1 convention"))
        computed = param_count(self)
        if computed != self.declared_param_count:
            raise ModelValidationError(
                f"model {self.name!r}: computed {computed} parameters, "
                f"descriptor declares {self.declared_param_count}")

    # worked out once per model from the layers __post_init__ accepted; not
    # fields, so equality, repr and the field schema do not see them
    @cached_property
    def traffic(self) -> tuple[TrafficVolume, ...]:
        """Each layer's ``layer_traffic``, in layer order."""
        return tuple(map(layer_traffic, self.layers))

    @cached_property
    def total_bits(self) -> int:
        """Denominator for energy-per-bit: every tensor of every layer, moved once."""
        return sum(t.total_bits for t in self.traffic)


def _layers_hold(layers: tuple[LayerSpec, ...]) -> bool:
    """Whether every layer's fields hold, no output dim exceeds its input and
    every fc dim is 1: one test per column, read by name off the transposed
    layers. Geometry is compared once the fields hold, the conv test on every layer."""
    c = LayerSpec._make(zip(*layers))   # each field holds its column
    return (fields_hold(LayerSpec, c)
            and not any(map(gt, c.out_h, c.in_h)) and not any(map(gt, c.out_w, c.in_w))
            and {1}.issuperset(chain.from_iterable(compress(   # fc layers are 1x1
                zip(c.kernel_h, c.kernel_w, c.in_h, c.in_w, c.out_h, c.out_w),
                map("fc".__eq__, c.kind)))))


class TrafficVolume(NamedTuple):
    """Per-layer data movement (bits)."""

    weight_bits: int
    input_bits: int
    output_bits: int

    @property
    def total_bits(self) -> int:
        return self.weight_bits + self.input_bits + self.output_bits


def param_count(model: DnnModelSpec) -> int:
    """Total parameters over all layers (weights + biases)."""
    return sum(map(LayerSpec.params, model.layers))


def layer_traffic(layer: LayerSpec) -> TrafficVolume:
    """Bits moved when the layer executes once: weights read once, the input
    tensor broadcast once, outputs written once. Bias traffic is folded into
    weight_bits."""
    return TrafficVolume(  # by position: keywords cost a third of the call
        layer.params() * layer.weight_bitwidth,  # weights
        layer.in_h * layer.in_w * layer.in_channels * layer.activation_bitwidth,  # inputs
        layer.out_h * layer.out_w * layer.out_channels * layer.activation_bitwidth,  # outputs
    )


# ------------------------------------------------------------- descriptor IO

_LAYER_KEYS = {"kind", "kernel", "channels_in", "channels_out", "in_hw", "out_hw",
               "stride", "weight_bitwidth", "activation_bitwidth"}
# fc layers may omit geometry; anything given must satisfy the 1x1 convention
_FC_KEYS = {"kind", "channels_in", "channels_out"}
_CONV_KEYS = _FC_KEYS | {"kernel", "in_hw", "out_hw", "stride"}
_MODEL_KEYS = {"name", "declared_param_count", "declared_conv_layers",
               "declared_fc_layers", "layers"}


def _pair(value, key: str, index: int) -> tuple:
    """One value for both dims, or a two-element [h, w] list."""
    if not isinstance(value, list):
        return value, value
    if len(value) != 2:
        raise DescriptorError(f"layer {index}: {key} must be a value or an [h, w] pair, "
                              f"got {value!r}")
    return value[0], value[1]


def _layer_from_entry(entry, index: int) -> LayerSpec:
    kind = entry.get("kind") if isinstance(entry, dict) else None
    required = _CONV_KEYS if kind == "conv" else _FC_KEYS
    if kind is None or not _LAYER_KEYS >= entry.keys() >= required:   # else read_keys passes
        read_keys(entry, _LAYER_KEYS, required, DescriptorError, f"layer {index}")
    if kind not in ("conv", "fc"):
        raise DescriptorError(f"layer {index}: kind must be conv or fc, got {kind!r}")
    # values are taken as written: DnnModelSpec checks them. Every field is
    # given, so tuple.__new__ builds the record without LayerSpec's own __new__
    get = entry.get
    kh = kw = get("kernel", 1)
    in_h = in_w = get("in_hw", 1)
    out_h = out_w = get("out_hw", 1)
    if isinstance(kh, list) or isinstance(in_h, list) or isinstance(out_h, list):
        kh, kw = _pair(kh, "kernel", index)
        in_h, in_w = _pair(in_h, "in_hw", index)
        out_h, out_w = _pair(out_h, "out_hw", index)
    return tuple.__new__(LayerSpec, (
        index, kind, kh, kw, entry["channels_in"], entry["channels_out"], in_h, in_w, out_h,
        out_w, get("stride", 1), get("weight_bitwidth", DEFAULT_BITWIDTH),
        get("activation_bitwidth", DEFAULT_BITWIDTH)))


@cache
def _form_patterns():
    """The documented form's line patterns and a pair line's entry pattern,
    compiled on first use. A word that YAML 1.1 reads as a bool or null, in
    any case, is no word."""
    import re

    word = r"(?!(?i:yes|no|true|false|on|off|null)(?![A-Za-z0-9_]))[A-Za-z_][A-Za-z0-9_]*"
    scalar = rf"(?:0|[1-9][0-9]*|{word})"
    value = rf"(?:{scalar}|\[{scalar}, {scalar}\])"
    entry = rf"{word}: {value}"
    comment = r"(?: +#[\t -~]*)?"   # printable ASCII: no YAML line break inside
    return (re.compile(rf"#[\t -~]*|({word}):(?: ({value}))?{comment}").fullmatch,
            re.compile(rf"- \{{((?:{entry}(?:, {entry})*)?)\}}{comment}").fullmatch,
            re.compile(r"(\w+): (\[\w+, \w+\]|\w+)").findall)   # entries the item matched


def _form_value(text: str):
    """A value the patterns matched: an int, a word or a list of two of these."""
    if text[0] == "[":
        return list(map(_form_value, text[1:-1].split(", ")))
    return int(text) if text[0] <= "9" else text


def read_documented_form(text: str) -> dict | None:
    """The document PyYAML loads from ``text`` when ``text`` is in the form
    the README documents: ``key: value`` lines at column 0, one ``- {key:
    value, ...}`` flow mapping per layer, ``#`` comments and values that are
    a decimal int, a word or an ``[a, b]`` pair of these. ``None`` for any
    other text, which PyYAML then reads."""
    top, item, pair_entries = _form_patterns()
    doc, key, items = {}, None, None   # items: the open key's list, None once it has a value
    for line in text.split("\n"):   # str.splitlines also splits where YAML does not
        if line[:1] == "-":
            match = None if items is None else item(line)
            if match is None:
                return None
            if not items:
                doc[key] = items
            inner, layer = match[1], {}
            if "[" in inner:   # a pair's ", " separates no entries
                layer = {k: _form_value(v) for k, v in pair_entries(inner)}
            elif inner:   # matched, so each entry is "word: word" or "word: int"
                for entry in inner.split(", "):
                    k, v = entry.split(": ")
                    layer[k] = int(v) if v[0] <= "9" else v
            items.append(layer)
        elif line:
            match = top(line)
            if match is None:
                return None
            if match[1] is not None:
                key, value = match.group(1, 2)
                doc[key], items = (None, []) if value is None else (_form_value(value), None)
    return doc or None   # PyYAML loads an empty or comment-only text as None


def load_model(descriptor_text: str) -> DnnModelSpec:
    """Parse a model descriptor and build it (see ``model_from_doc``). A text
    in the documented form is read by ``read_documented_form``, any other by
    PyYAML; both give the same document, so the same model or error."""
    doc = read_documented_form(descriptor_text)
    if doc is None:
        doc = safe_load(descriptor_text, DescriptorError, "descriptor")
    return model_from_doc(doc)


def model_from_doc(doc) -> DnnModelSpec:
    """Build and fully validate a model from its parsed descriptor.

    Raises DescriptorError for a malformed document and ModelValidationError
    when the content violates a model invariant (for example a parameter-count
    mismatch); validation errors name the offending layer index.
    """
    read_keys(doc, _MODEL_KEYS, {"name", "declared_param_count", "layers"},
              DescriptorError, "model")
    for key in ("declared_param_count", "declared_conv_layers", "declared_fc_layers"):
        if key in doc and type(doc[key]) is not int:
            raise DescriptorError(f"model: {key} must be an integer, got {doc[key]!r}")
    entries = doc["layers"]
    if not isinstance(entries, list):
        raise DescriptorError("layers must be an array")
    layers = tuple(map(_layer_from_entry, entries, range(len(entries))))
    model = DnnModelSpec(doc["name"], layers, doc["declared_param_count"])
    _check_kind_counts(model, doc)
    return model


def _check_kind_counts(model: DnnModelSpec, doc: dict) -> None:
    kinds = [layer.kind for layer in model.layers]
    for kind in ("conv", "fc"):
        expect, actual = doc.get(f"declared_{kind}_layers"), kinds.count(kind)
        if expect is not None and actual != expect:
            raise ModelValidationError(
                f"model {model.name!r}: {actual} {kind} layers, descriptor declares {expect}")


def load_model_file(path: str) -> DnnModelSpec:
    with open(path, "r", encoding="utf-8") as f:
        return load_model(f.read())


def shipped_model_names() -> list[str]:
    from importlib import resources

    names = []
    for item in resources.files("cpsim.data.models").iterdir():
        if item.name.endswith(".desc"):
            names.append(item.name[: -len(".desc")])
    return sorted(names)


def load_shipped_model(name: str) -> DnnModelSpec:
    """Load one of the descriptors bundled with the package."""
    from importlib import resources

    ref = resources.files("cpsim.data.models").joinpath(f"{name}.desc")
    try:
        text = ref.read_text(encoding="utf-8")
    except OSError:   # no such file, or a directory
        raise DescriptorError(f"no shipped model named {name!r}; "
                              f"available: {', '.join(shipped_model_names())}") from None
    return model_from_doc(json.loads(text))
