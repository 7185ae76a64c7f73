"""Seeded synthetic model descriptors for the engine workloads.

Each model is a chain of conv stages (1x1, 3x3, 5x5 and 7x7 kernels, some
strided, some followed by 2x2 pooling) with fc layers mixed in. Channel
widths and kernel choices are drawn at random, so the per-layer traffic and
therefore the photonic controller's gateway demand vary from layer to layer.
Every model has the same number of layers whatever the seed, which keeps the
engine's host cost per op nearly seed-independent.

The text is written by hand rather than by a YAML emitter, so the same seed
gives byte-identical descriptors on any PyYAML version. The parameter count
is computed here, independently of cpsim, and cpsim.load_model checks it.
"""

from __future__ import annotations

import random

N_MODELS = 24
LAYERS_PER_MODEL = 80

_CHANNELS = (16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512)
_FC_FEATURES = (128, 256, 512, 1024, 2048, 4096)
_INPUT_HW = (224, 160, 112)


def _conv(rng: random.Random, hw: int, cin: int) -> tuple[dict, int]:
    kernel = rng.choice([k for k in (1, 3, 5, 7) if k <= hw])
    stride = 2 if hw >= 8 and rng.random() < 0.15 else 1
    out_hw = (hw + stride - 1) // stride
    cout = rng.choice(_CHANNELS)
    layer = {"kind": "conv", "kernel": kernel, "channels_in": cin, "channels_out": cout,
             "in_hw": hw, "out_hw": out_hw, "stride": stride}
    return layer, kernel * kernel * cin * cout + cout


def _fc(rng: random.Random, fin: int) -> tuple[dict, int]:
    fout = rng.choice(_FC_FEATURES)
    return {"kind": "fc", "channels_in": fin, "channels_out": fout}, fin * fout + fout


def _render(name: str, layers: list[dict], params: int) -> str:
    n_conv = sum(1 for layer in layers if layer["kind"] == "conv")
    lines = [f"# {name}: synthetic descriptor, see bench/gen.py.",
             f"name: {name}",
             f"declared_param_count: {params}",
             f"declared_conv_layers: {n_conv}",
             f"declared_fc_layers: {len(layers) - n_conv}",
             "layers:"]
    for layer in layers:
        lines.append("- {" + ", ".join(f"{k}: {v}" for k, v in layer.items()) + "}")
    return "\n".join(lines) + "\n"


def generate_model(rng: random.Random, name: str, n_layers: int) -> str:
    """One descriptor text of exactly ``n_layers`` layers."""
    hw, cin = rng.choice(_INPUT_HW), 3
    layers, params = [], 0
    while len(layers) < n_layers:
        if rng.random() < 0.12:
            layer, p = _fc(rng, rng.choice(_FC_FEATURES))
        else:
            layer, p = _conv(rng, hw, cin)
            cin, hw = layer["channels_out"], layer["out_hw"]
            if hw >= 4 and rng.random() < 0.08:
                hw //= 2
            if hw < 4 and rng.random() < 0.3:
                hw, cin = rng.choice(_INPUT_HW), 3   # a new stem keeps spatial sizes varied
        layers.append(layer)
        params += p
    return _render(name, layers, params)


def generate(seed: int) -> list[str]:
    """Descriptor texts for one seed; the same seed gives the same bytes."""
    rng = random.Random(seed)
    return [generate_model(rng, f"gen{seed}_{k}", LAYERS_PER_MODEL) for k in range(N_MODELS)]
