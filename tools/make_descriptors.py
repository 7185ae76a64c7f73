#!/usr/bin/env python3
"""Generate the shipped model descriptor files.

Each descriptor lists per-layer geometry for a well-known DNN, built as
cpsim's own ``LayerSpec``s, so ``LayerSpec.params`` counts the parameters
here as it does in the simulator. The published totals for most of these
models also include batch-norm parameters, which this format does not
represent, so designated "ballast" layers carry a small channel pad (and the
classifier input width absorbs the rest) to make the computed total match
the published figure exactly. The pads are printed when the files are
written, and the README's descriptor section lists them.

The files are JSON text, one layer per line, which cpsim parses with
``json.loads``; JSON is also YAML, so a copy still loads as a user file.

Run from the repo root, with cpsim importable:
    PYTHONPATH=src python tools/make_descriptors.py
"""

from __future__ import annotations

import json
import os

from cpsim.workload import LayerSpec

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "cpsim", "data", "models")


def conv(k, cin, cout, in_hw, out_hw, stride=1):
    return LayerSpec(0, "conv", k, k, cin, cout, in_hw, in_hw, out_hw, out_hw, stride)


def fc(fin, fout):
    return LayerSpec(0, "fc", 1, 1, fin, fout, 1, 1, 1, 1)


def total(layers):
    return sum(l.params() for l in layers)


# ---------------------------------------------------------------- models


def lenet5():
    # Classic LeNet-5 with a 3-channel 32x32 input (C5 expressed as a conv);
    # this variant's conv/fc total is exactly the published 62,006.
    layers = [
        conv(5, 3, 6, 32, 28),
        conv(5, 6, 16, 14, 10),
        conv(5, 16, 120, 5, 1),
        fc(120, 84),
        fc(84, 10),
    ]
    return "lenet5", layers, 62_006


def vgg16():
    cfg = [
        (3, 64, 224), (64, 64, 224),
        (64, 128, 112), (128, 128, 112),
        (128, 256, 56), (256, 256, 56), (256, 256, 56),
        (256, 512, 28), (512, 512, 28), (512, 512, 28),
        (512, 512, 14), (512, 512, 14), (512, 512, 14),
    ]
    layers = [conv(3, cin, cout, hw, hw) for cin, cout, hw in cfg]
    layers += [fc(25088, 4096), fc(4096, 4096), fc(4096, 1000)]
    return "vgg16", layers, 138_357_544


def resnet50():
    layers = [conv(7, 3, 64, 224, 112, stride=2)]
    stages = [
        (64, 64, 256, 3, 1, 56, 56),
        (256, 128, 512, 4, 2, 56, 28),
        (512, 256, 1024, 6, 2, 28, 14),
        (1024, 512, 2048, 3, 2, 14, 7),
    ]
    for cin, mid, cout, blocks, stride, in_sp, out_sp in stages:
        layers.append(conv(1, cin, mid, in_sp, in_sp))
        layers.append(conv(3, mid, mid, in_sp, out_sp, stride=stride))
        layers.append(conv(1, mid, cout, out_sp, out_sp))
        layers.append(conv(1, cin, cout, in_sp, out_sp, stride=stride))  # projection shortcut
        for _ in range(blocks - 1):
            layers.append(conv(1, cout, mid, out_sp, out_sp))
            layers.append(conv(3, mid, mid, out_sp, out_sp))
            layers.append(conv(1, mid, cout, out_sp, out_sp))
    layers.append(fc(2048, 1000))
    return "resnet50", layers, 25_636_712


def densenet121():
    growth, bottleneck = 32, 128
    layers = [conv(7, 3, 64, 224, 112, stride=2)]
    c = 64
    for n_dense, sp, last in ((6, 56, False), (12, 28, False), (24, 14, False), (16, 7, True)):
        for _ in range(n_dense):
            layers.append(conv(1, c, bottleneck, sp, sp))
            layers.append(conv(3, bottleneck, growth, sp, sp))
            c += growth
        if not last:
            layers.append(conv(1, c, c // 2, sp, sp))  # transition
            c //= 2
    layers.append(fc(c, 1000))
    return "densenet121", layers, 8_062_504


def mobilenetv2():
    # Inverted-residual blocks; depthwise stages are written with cin=1
    # (per-group channels divided out), cout = the depthwise channel count.
    layers = [conv(3, 3, 32, 224, 112, stride=2)]
    c, sp = 32, 112
    cfg = [(1, 16, 1, 1), (6, 24, 2, 2), (6, 32, 3, 2), (6, 64, 4, 2),
           (6, 96, 3, 1), (6, 160, 3, 2), (6, 320, 1, 1)]
    for t, cout, n, s in cfg:
        for i in range(n):
            stride = s if i == 0 else 1
            out_sp = sp // stride
            hidden = c * t
            if t != 1:
                layers.append(conv(1, c, hidden, sp, sp))
            layers.append(conv(3, 1, hidden, sp, out_sp, stride=stride))  # depthwise
            layers.append(conv(1, hidden, cout, out_sp, out_sp))
            c, sp = cout, out_sp
    layers.append(conv(1, 320, 1280, 7, 7))
    layers.append(fc(1280, 1000))
    return "mobilenetv2", layers, 3_538_984


# ------------------------------------------------------------- adjustment


def absorb_gap(name, layers, target):
    """Pad channels on up to two designated conv layers plus the classifier
    input width so the computed total equals the published one."""
    gap = target - total(layers)
    if gap == 0:
        return layers, []
    fc_idx = next(i for i, l in enumerate(layers) if l.kind == "fc")
    fout = layers[fc_idx].out_channels
    # candidate ballast convs: odd per-channel cost, coprime with fout
    cands = []
    for i, l in enumerate(layers):
        if l.kind != "conv":
            continue
        unit = l.dot_length + 1
        if unit % 2 == 1 and unit % 5 != 0:
            cands.append((i, unit))
    best = None
    for ai, (i, ui) in enumerate(cands[:40]):
        for j, uj in cands[ai + 1 :][:40]:
            for x in range(-24, 25):
                rem = gap - ui * x
                for z in range(-24, 25):
                    rem2 = rem - uj * z
                    if rem2 % fout != 0:
                        continue
                    y = rem2 // fout
                    if (abs(y) > 600 or layers[i].out_channels + x < 8
                            or layers[j].out_channels + z < 8):
                        continue
                    score = (abs(x) + abs(z), abs(y), i, j)
                    if best is None or score < best[0]:
                        best = (score, i, x, j, z, y)
    if best is None:
        raise RuntimeError(f"{name}: no adjustment found for gap {gap}")
    _, i, x, j, z, y = best
    notes = []
    for k, pad in ((i, x), (j, z)):
        if pad:
            cout = layers[k].out_channels
            layers[k] = layers[k]._replace(out_channels=cout + pad)
            notes.append(f"layer {k} channels_out {cout} -> {cout + pad}")
    if y:
        fin = layers[fc_idx].in_channels
        layers[fc_idx] = layers[fc_idx]._replace(in_channels=fin + y)
        notes.append(f"layer {fc_idx} in_features {fin} -> {fin + y}")
    assert total(layers) == target, (name, total(layers), target)
    return layers, notes


# ------------------------------------------------------------------ emit


def emit(name, layers, target) -> str:
    """The descriptor as JSON text, one layer per line. JSON is also YAML, so
    the file reads the same through cpsim's JSON path and through a user's
    YAML path; it holds only ints and strings, so no float spelling arises."""
    n_conv = sum(1 for l in layers if l.kind == "conv")
    head = {"name": name, "declared_param_count": target,
            "declared_conv_layers": n_conv, "declared_fc_layers": len(layers) - n_conv}
    rows = []
    for l in layers:
        entry = {"kind": l.kind, "kernel": l.kernel_h, "channels_in": l.in_channels,
                 "channels_out": l.out_channels, "in_hw": l.in_h, "out_hw": l.out_h,
                 "stride": l.stride}
        if l.kind == "fc":   # the 1x1 geometry is left out
            entry = {k: entry[k] for k in ("kind", "channels_in", "channels_out")}
        rows.append("    " + json.dumps(entry))
    lines = ["{"] + [f"  {json.dumps(k)}: {json.dumps(v)}," for k, v in head.items()]
    lines += ['  "layers": [', ",\n".join(rows), "  ]", "}"]
    return "\n".join(lines) + "\n"


def descriptors():
    """(name, descriptor text, ballast notes) for each shipped model."""
    for build in (lenet5, resnet50, densenet121, vgg16, mobilenetv2):
        name, layers, target = build()
        layers, notes = absorb_gap(name, layers, target)
        yield name, emit(name, layers, target), notes


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    for name, text, notes in descriptors():
        path = os.path.join(OUT_DIR, f"{name}.desc")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"{name} -> {path}")
        for note in notes:   # the README's ballast table lists these
            print(f"  ballast: {note}")


if __name__ == "__main__":
    main()
