"""Generate the bundled network description fixtures.

Each recipe mirrors a deployment-style graph: convolutions are followed
by two batchnorm layers (normalize then scale, as separate copies) and
a relu where the reference network has them, all materialized rather
than in place. Copy-through layers with no parameters (LRN, dropout)
are written as non-in-place relu. Pre-activation families put the
batchnorm/relu group before the convolution instead.

Run from the repo root: python3 tools/build_model_fixtures.py [--only name]
Writes fixtures/models/<name>.yaml and prints a comparison of the
analyzer's reuse ratios against fixtures/reference_metrics.csv.
"""

from __future__ import annotations

import argparse
import csv
import pathlib
import sys

import yaml

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dnnreuse.graph import IN_PLACE_KINDS, ModelGraph, parse_model
from dnnreuse.netprofile import aggregate


def serialize_model(graph: ModelGraph) -> str:
    """Render a graph back to document text; parse(serialize(g)) == g."""
    layers = []
    for spec in graph.layers:
        entry = {"name": spec.name, "kind": spec.kind}
        if spec.inputs:
            entry["inputs"] = list(spec.inputs)
        entry.update(spec.params)
        if spec.kind in IN_PLACE_KINDS:
            entry["in_place"] = spec.in_place
        layers.append(entry)
    doc = {
        "name": graph.name,
        "input": {
            "channels": graph.input_shape.channels,
            "h": graph.input_shape.height,
            "w": graph.input_shape.width,
        },
        "layers": layers,
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


class Builder:
    """Incremental graph assembly with post/pre-activation conv units."""

    def __init__(self, name: str, channels: int = 3, h: int = 224, w: int | None = None):
        self.name = name
        self.input = {"channels": channels, "h": h, "w": w if w is not None else h}
        self.layers = []
        self._names = set()
        self.raw("input", "data", [])

    def raw(self, kind, name, inputs, **params):
        if name in self._names:
            raise ValueError(f"duplicate layer {name}")
        self._names.add(name)
        entry = {"name": name, "kind": kind}
        if inputs:
            entry["inputs"] = list(inputs)
        entry.update(params)
        self.layers.append(entry)
        return name

    def conv(self, name, src, out, k, s=1, p=0, g=1):
        kh, kw = k if isinstance(k, tuple) else (k, k)
        sh, sw = s if isinstance(s, tuple) else (s, s)
        ph, pw = p if isinstance(p, tuple) else (p, p)
        return self.raw(
            "conv", name, [src],
            out_channels=out, kernel_h=kh, kernel_w=kw,
            stride_h=sh, stride_w=sw, pad_h=ph, pad_w=pw, groups=g,
        )

    def bn_pair(self, name, src):
        a = self.raw("batchnorm", f"{name}.norm", [src], in_place=False)
        return self.raw("batchnorm", f"{name}.scale", [a], in_place=False)

    def relu(self, name, src):
        return self.raw("relu", name, [src], in_place=False)

    def copy(self, name, src):
        # parameter-free copy-through layer (LRN, dropout)
        return self.raw("relu", name, [src], in_place=False)

    def unit(self, name, src, out, k, s=1, p=0, g=1, bn=True, act=True):
        """Post-activation conv unit: conv [+ norm + scale] [+ relu]."""
        t = self.conv(name, src, out, k, s, p, g)
        if bn:
            t = self.bn_pair(name, t)
        if act:
            t = self.relu(f"{name}.relu", t)
        return t

    def preact(self, name, src):
        """Pre-activation group: norm + scale + relu on the input."""
        t = self.bn_pair(name, src)
        return self.relu(f"{name}.relu", t)

    def pool(self, name, src, k, s=None, p=0):
        kh, kw = k if isinstance(k, tuple) else (k, k)
        s = s if s is not None else k
        sh, sw = s if isinstance(s, tuple) else (s, s)
        ph, pw = p if isinstance(p, tuple) else (p, p)
        return self.raw(
            "pool", name, [src],
            kernel_h=kh, kernel_w=kw, stride_h=sh, stride_w=sw, pad_h=ph, pad_w=pw,
        )

    def fc(self, name, src, out):
        return self.raw("fc", name, [src], out_features=out)

    def add(self, name, a, b):
        return self.raw("add", name, [a, b])

    def concat(self, name, srcs):
        return self.raw("concat", name, list(srcs))

    def doc(self):
        return {"name": self.name, "input": self.input, "layers": self.layers}


def build_alexnet():
    b = Builder("alexnet")
    t = b.conv("conv1", "data", 96, 11, s=4, p=2)
    t = b.relu("relu1", t)
    t = b.copy("norm1", t)
    t = b.pool("pool1", t, 3, 2)
    t = b.conv("conv2", t, 256, 5, p=2, g=2)
    t = b.relu("relu2", t)
    t = b.copy("norm2", t)
    t = b.pool("pool2", t, 3, 2)
    t = b.conv("conv3", t, 384, 3, p=1)
    t = b.relu("relu3", t)
    t = b.conv("conv4", t, 384, 3, p=1, g=2)
    t = b.relu("relu4", t)
    t = b.conv("conv5", t, 256, 3, p=1, g=2)
    t = b.relu("relu5", t)
    t = b.pool("pool5", t, 3, 2)
    t = b.fc("fc6", t, 4096)
    t = b.relu("relu6", t)
    t = b.copy("drop6", t)
    t = b.fc("fc7", t, 4096)
    t = b.relu("relu7", t)
    t = b.copy("drop7", t)
    b.fc("fc8", t, 1000)
    return b


def build_vgg16():
    b = Builder("vgg-16")
    t = "data"
    plan = [(2, 64), (2, 128), (3, 256), (3, 512), (3, 512)]
    for stage, (reps, width) in enumerate(plan, start=1):
        for i in range(1, reps + 1):
            t = b.conv(f"conv{stage}_{i}", t, width, 3, p=1)
            t = b.relu(f"relu{stage}_{i}", t)
        t = b.pool(f"pool{stage}", t, 2, 2)
    t = b.fc("fc6", t, 4096)
    t = b.relu("relu6", t)
    t = b.copy("drop6", t)
    t = b.fc("fc7", t, 4096)
    t = b.relu("relu7", t)
    t = b.copy("drop7", t)
    b.fc("fc8", t, 1000)
    return b


def build_nin():
    b = Builder("nin", h=227)
    t = b.conv("conv1", "data", 96, 11, s=4)
    t = b.relu("relu0", t)
    t = b.conv("cccp1", t, 96, 1)
    t = b.relu("relu1", t)
    t = b.conv("cccp2", t, 96, 1)
    t = b.relu("relu2", t)
    t = b.pool("pool1", t, 3, 2)
    t = b.conv("conv2", t, 256, 5, p=2)
    t = b.relu("relu3", t)
    t = b.conv("cccp3", t, 256, 1)
    t = b.relu("relu4", t)
    t = b.conv("cccp4", t, 256, 1)
    t = b.relu("relu5", t)
    t = b.pool("pool2", t, 3, 2)
    t = b.conv("conv3", t, 384, 3, p=1)
    t = b.relu("relu6", t)
    t = b.conv("cccp5", t, 384, 1)
    t = b.relu("relu7", t)
    t = b.conv("cccp6", t, 384, 1)
    t = b.relu("relu8", t)
    t = b.pool("pool3", t, 3, 2)
    t = b.copy("drop", t)
    t = b.conv("conv4-1024", t, 1024, 3, p=1)
    t = b.relu("relu9", t)
    t = b.conv("cccp7-1024", t, 1024, 1)
    t = b.relu("relu10", t)
    t = b.conv("cccp8-1024", t, 1000, 1)
    t = b.relu("relu11", t)
    b.pool("pool4", t, 6, 1)
    return b


def _fire(b, name, src, squeeze, expand):
    s = b.conv(f"{name}.squeeze1x1", src, squeeze, 1)
    s = b.relu(f"{name}.squeeze1x1.relu", s)
    e1 = b.conv(f"{name}.expand1x1", s, expand, 1)
    e1 = b.relu(f"{name}.expand1x1.relu", e1)
    e3 = b.conv(f"{name}.expand3x3", s, expand, 3, p=1)
    e3 = b.relu(f"{name}.expand3x3.relu", e3)
    return b.concat(f"{name}.concat", [e1, e3])


def build_squeezenet10():
    b = Builder("squeezenet-v1.0")
    t = b.conv("conv1", "data", 96, 7, s=2, p=2)
    t = b.relu("conv1.relu", t)
    t = b.pool("pool1", t, 3, 2)
    t = _fire(b, "fire2", t, 16, 64)
    t = _fire(b, "fire3", t, 16, 64)
    t = _fire(b, "fire4", t, 32, 128)
    t = b.pool("pool4", t, 3, 2)
    t = _fire(b, "fire5", t, 32, 128)
    t = _fire(b, "fire6", t, 48, 192)
    t = _fire(b, "fire7", t, 48, 192)
    t = _fire(b, "fire8", t, 64, 256)
    t = b.pool("pool8", t, 3, 2)
    t = _fire(b, "fire9", t, 64, 256)
    t = b.copy("drop9", t)
    t = b.conv("conv10", t, 1000, 1)
    t = b.relu("conv10.relu", t)
    b.pool("pool10", t, 13, 1)
    return b


def build_squeezenet11():
    b = Builder("squeezenet-v1.1")
    t = b.conv("conv1", "data", 64, 3, s=2)
    t = b.relu("conv1.relu", t)
    t = b.pool("pool1", t, 3, 2)
    t = _fire(b, "fire2", t, 16, 64)
    t = _fire(b, "fire3", t, 16, 64)
    t = b.pool("pool3", t, 3, 2)
    t = _fire(b, "fire4", t, 32, 128)
    t = _fire(b, "fire5", t, 32, 128)
    t = b.pool("pool5", t, 3, 2)
    t = _fire(b, "fire6", t, 48, 192)
    t = _fire(b, "fire7", t, 48, 192)
    t = _fire(b, "fire8", t, 64, 256)
    t = _fire(b, "fire9", t, 64, 256)
    t = b.copy("drop9", t)
    t = b.conv("conv10", t, 1000, 1)
    t = b.relu("conv10.relu", t)
    b.pool("pool10", t, 13, 1)
    return b


def _gl_inception(b, name, src, n1, r3, n3, r5, n5, p):
    b1 = b.conv(f"{name}.1x1", src, n1, 1)
    b1 = b.relu(f"{name}.1x1.relu", b1)
    b2 = b.conv(f"{name}.3x3r", src, r3, 1)
    b2 = b.relu(f"{name}.3x3r.relu", b2)
    b2 = b.conv(f"{name}.3x3", b2, n3, 3, p=1)
    b2 = b.relu(f"{name}.3x3.relu", b2)
    b3 = b.conv(f"{name}.5x5r", src, r5, 1)
    b3 = b.relu(f"{name}.5x5r.relu", b3)
    b3 = b.conv(f"{name}.5x5", b3, n5, 5, p=2)
    b3 = b.relu(f"{name}.5x5.relu", b3)
    b4 = b.pool(f"{name}.pool", src, 3, 1, p=1)
    b4 = b.conv(f"{name}.poolproj", b4, p, 1)
    b4 = b.relu(f"{name}.poolproj.relu", b4)
    return b.concat(f"{name}.concat", [b1, b2, b3, b4])


def build_googlenet():
    b = Builder("googlenet")
    t = b.conv("conv1", "data", 64, 7, s=2, p=3)
    t = b.relu("conv1.relu", t)
    t = b.pool("pool1", t, 3, 2, p=1)
    t = b.copy("norm1", t)
    t = b.conv("conv2r", t, 64, 1)
    t = b.relu("conv2r.relu", t)
    t = b.conv("conv2", t, 192, 3, p=1)
    t = b.relu("conv2.relu", t)
    t = b.copy("norm2", t)
    t = b.pool("pool2", t, 3, 2, p=1)
    t = _gl_inception(b, "i3a", t, 64, 96, 128, 16, 32, 32)
    t = _gl_inception(b, "i3b", t, 128, 128, 192, 32, 96, 64)
    t = b.pool("pool3", t, 3, 2, p=1)
    t = _gl_inception(b, "i4a", t, 192, 96, 208, 16, 48, 64)
    t = _gl_inception(b, "i4b", t, 160, 112, 224, 24, 64, 64)
    t = _gl_inception(b, "i4c", t, 128, 128, 256, 24, 64, 64)
    t = _gl_inception(b, "i4d", t, 112, 144, 288, 32, 64, 64)
    t = _gl_inception(b, "i4e", t, 256, 160, 320, 32, 128, 128)
    t = b.pool("pool4", t, 3, 2, p=1)
    t = _gl_inception(b, "i5a", t, 256, 160, 320, 32, 128, 128)
    t = _gl_inception(b, "i5b", t, 384, 192, 384, 48, 128, 128)
    t = b.pool("pool5", t, 7, 1)
    t = b.copy("drop", t)
    b.fc("fc", t, 1000)
    return b


def build_mobilenet_v1():
    b = Builder("mobilenet-v1")
    t = b.unit("conv1", "data", 32, 3, s=2, p=1)
    plan = [
        (64, 1), (128, 2), (128, 1), (256, 2), (256, 1), (512, 2),
        (512, 1), (512, 1), (512, 1), (512, 1), (512, 1), (1024, 2), (1024, 1),
    ]
    ch = 32
    for i, (out, s) in enumerate(plan, start=1):
        t = b.unit(f"dw{i}", t, ch, 3, s=s, p=1, g=ch)
        t = b.unit(f"pw{i}", t, out, 1)
        ch = out
    t = b.pool("gpool", t, 7, 1)
    b.fc("fc", t, 1000)
    return b


def build_mobilenet_v2():
    b = Builder("mobilenet-v2")
    t = b.unit("conv1", "data", 32, 3, s=2, p=1)
    plan = [
        (1, 16, 1, 1), (6, 24, 2, 2), (6, 32, 3, 2), (6, 64, 4, 2),
        (6, 96, 3, 1), (6, 160, 3, 2), (6, 320, 1, 1),
    ]
    ch = 32
    idx = 0
    for t_exp, out, reps, first_s in plan:
        for r in range(reps):
            idx += 1
            s = first_s if r == 0 else 1
            name = f"block{idx}"
            src = t
            u = src
            if t_exp != 1:
                u = b.unit(f"{name}.expand", u, ch * t_exp, 1)
            u = b.unit(f"{name}.dw", u, ch * t_exp, 3, s=s, p=1, g=ch * t_exp)
            u = b.unit(f"{name}.project", u, out, 1, act=False)
            if s == 1 and ch == out:
                u = b.add(f"{name}.add", src, u)
            t = u
            ch = out
    t = b.unit("conv_last", t, 1280, 1)
    t = b.pool("gpool", t, 7, 1)
    b.fc("fc", t, 1000)
    return b


def _res_bottleneck(b, name, src, mid, out, stride, downsample):
    t = b.unit(f"{name}.c1", src, mid, 1, s=stride)
    t = b.unit(f"{name}.c2", t, mid, 3, p=1)
    t = b.unit(f"{name}.c3", t, out, 1, act=False)
    if downsample:
        sc = b.unit(f"{name}.ds", src, out, 1, s=stride, act=False)
    else:
        sc = src
    t = b.add(f"{name}.add", sc, t)
    return b.relu(f"{name}.relu", t)


def _preact_bottleneck(b, name, src, mid, out, stride, downsample):
    # stride sits on the 3x3, shortcut taken from the pre-activated tensor
    pre = b.preact(f"{name}.pre", src)
    t = b.conv(f"{name}.c1", pre, mid, 1)
    t = b.preact(f"{name}.c1.post", t)
    t = b.conv(f"{name}.c2", t, mid, 3, s=stride, p=1)
    t = b.preact(f"{name}.c2.post", t)
    t = b.conv(f"{name}.c3", t, out, 1)
    if downsample:
        sc = b.conv(f"{name}.ds", pre, out, 1, s=stride)
    else:
        sc = src
    return b.add(f"{name}.add", sc, t)


def _resnext_block(b, name, src, width, out, stride, downsample):
    t = b.unit(f"{name}.c1", src, width, 1)
    t = b.unit(f"{name}.c2", t, width, 3, s=stride, p=1, g=32)
    t = b.unit(f"{name}.c3", t, out, 1, act=False)
    if downsample:
        sc = b.unit(f"{name}.ds", src, out, 1, s=stride, act=False)
    else:
        sc = src
    t = b.add(f"{name}.add", sc, t)
    return b.relu(f"{name}.relu", t)


RESNET_WIDTHS = (64, 128, 256, 512)
RESNEXT_WIDTHS = (128, 256, 512, 1024)


def _build_bottleneck_net(name, blocks, block, widths, h=224, gpool=7):
    """7x7 stem, four stages of `block` whose first block downsamples, global pool and fc."""
    b = Builder(name, h=h)
    t = b.unit("conv1", "data", 64, 7, s=2, p=3)
    t = b.pool("pool1", t, 3, 2, p=1)
    for stage, (reps, width, out) in enumerate(zip(blocks, widths, (256, 512, 1024, 2048))):
        for i in range(reps):
            stride = 2 if (stage > 0 and i == 0) else 1
            t = block(b, f"s{stage + 2}.b{i + 1}", t, width, out, stride, downsample=(i == 0))
    if block is _preact_bottleneck:  # its blocks end in a bare sum, so the head normalises it first
        t = b.preact("final", t)
    t = b.pool("gpool", t, gpool, 1)
    b.fc("fc", t, 1000)
    return b


def build_resnet50():
    return _build_bottleneck_net("resnet-50", [3, 4, 6, 3], _res_bottleneck, RESNET_WIDTHS)


def build_resnet101():
    return _build_bottleneck_net("resnet-101", [3, 4, 23, 3], _res_bottleneck, RESNET_WIDTHS)


def build_resnet152():
    return _build_bottleneck_net("resnet-152", [3, 8, 36, 3], _res_bottleneck, RESNET_WIDTHS)


def build_resnet101_v2():
    return _build_bottleneck_net("resnet101-v2", [3, 4, 23, 3], _preact_bottleneck, RESNET_WIDTHS)


def build_resnet152_v2():
    return _build_bottleneck_net("resnet152-v2", [3, 8, 36, 3], _preact_bottleneck, RESNET_WIDTHS)


def build_resnext50():
    return _build_bottleneck_net("resnext50-32x4d", [3, 4, 6, 3], _resnext_block, RESNEXT_WIDTHS, h=227, gpool=8)


def build_resnext101():
    return _build_bottleneck_net("resnext101-32x4d", [3, 4, 23, 3], _resnext_block, RESNEXT_WIDTHS, h=227, gpool=8)


def _dense_block(b, name, src, layers, growth):
    t = src
    for i in range(layers):
        pre = b.preact(f"{name}.l{i + 1}.pre1", t)
        u = b.conv(f"{name}.l{i + 1}.c1", pre, 4 * growth, 1)
        u = b.preact(f"{name}.l{i + 1}.pre2", u)
        u = b.conv(f"{name}.l{i + 1}.c2", u, growth, 3, p=1)
        t = b.concat(f"{name}.l{i + 1}.concat", [t, u])
    return t


def _transition(b, name, src, out):
    t = b.preact(f"{name}.pre", src)
    t = b.conv(f"{name}.conv", t, out, 1)
    return b.pool(f"{name}.pool", t, 2, 2, p=1)


def _build_densenet(name, blocks):
    b = Builder(name, h=227)
    t = b.unit("conv1", "data", 64, 7, s=2, p=3)
    t = b.pool("pool1", t, 3, 2, p=1)
    ch = 64
    for bi, layers in enumerate(blocks, start=1):
        t = _dense_block(b, f"db{bi}", t, layers, 32)
        ch += 32 * layers
        if bi < len(blocks):
            ch //= 2
            t = _transition(b, f"t{bi}", t, ch)
    t = b.preact("final", t)
    t = b.pool("gpool", t, 8, 1)
    b.fc("fc", t, 1000)
    return b


def build_densenet121():
    return _build_densenet("densenet-121", [6, 12, 24, 16])


def build_densenet169():
    return _build_densenet("densenet-169", [6, 12, 32, 32])


def _bn_inception(b, name, src, n1, r3, n3, rd, nd, pool_kind, p, stride=1):
    """Double-3x3 module; stride 2 drops the 1x1 branch and pool projection."""
    branches = []
    if n1:
        b1 = b.unit(f"{name}.1x1", src, n1, 1)
        branches.append(b1)
    b2 = b.unit(f"{name}.3x3r", src, r3, 1)
    b2 = b.unit(f"{name}.3x3", b2, n3, 3, s=stride, p=1)
    branches.append(b2)
    b3 = b.unit(f"{name}.d3x3r", src, rd, 1)
    b3 = b.unit(f"{name}.d3x3a", b3, nd, 3, p=1)
    b3 = b.unit(f"{name}.d3x3b", b3, nd, 3, s=stride, p=1)
    branches.append(b3)
    b4 = b.pool(f"{name}.pool", src, 3, stride, p=1)
    if p:
        b4 = b.unit(f"{name}.poolproj", b4, p, 1)
    branches.append(b4)
    return b.concat(f"{name}.concat", branches)


def build_inception_v2():
    b = Builder("inception-v2", h=231)
    t = b.unit("conv1", "data", 64, 7, s=2, p=3)
    t = b.pool("pool1", t, 3, 2, p=1)
    t = b.unit("conv2r", t, 64, 1)
    t = b.unit("conv2", t, 192, 3, p=1)
    t = b.pool("pool2", t, 3, 2, p=1)
    t = _bn_inception(b, "i3a", t, 64, 64, 64, 64, 96, "avg", 32)
    t = _bn_inception(b, "i3b", t, 64, 64, 96, 64, 96, "avg", 64)
    t = _bn_inception(b, "i3c", t, 0, 128, 160, 64, 96, "max", 0, stride=2)
    t = _bn_inception(b, "i4a", t, 224, 64, 96, 96, 128, "avg", 128)
    t = _bn_inception(b, "i4b", t, 192, 96, 128, 96, 128, "avg", 128)
    t = _bn_inception(b, "i4c", t, 160, 128, 160, 128, 160, "avg", 96)
    t = _bn_inception(b, "i4d", t, 96, 128, 192, 160, 192, "avg", 96)
    t = _bn_inception(b, "i4e", t, 0, 128, 192, 192, 256, "max", 0, stride=2)
    t = _bn_inception(b, "i5a", t, 352, 192, 320, 160, 224, "avg", 128)
    t = _bn_inception(b, "i5b", t, 352, 192, 320, 192, 224, "max", 128)
    t = b.pool("gpool", t, 8, 1)
    b.fc("fc", t, 1000)
    return b


def build_inception_v3():
    b = Builder("inception-v3", h=299)
    t = b.unit("c1", "data", 32, 3, s=2)
    t = b.unit("c2", t, 32, 3)
    t = b.unit("c3", t, 64, 3, p=1)
    t = b.pool("pool1", t, 3, 2)
    t = b.unit("c4", t, 80, 1)
    t = b.unit("c5", t, 192, 3)
    t = b.pool("pool2", t, 3, 2)

    def block_a(name, src, pool_proj):
        b1 = b.unit(f"{name}.1x1", src, 64, 1)
        b2 = b.unit(f"{name}.5x5r", src, 48, 1)
        b2 = b.unit(f"{name}.5x5", b2, 64, 5, p=2)
        b3 = b.unit(f"{name}.d3r", src, 64, 1)
        b3 = b.unit(f"{name}.d3a", b3, 96, 3, p=1)
        b3 = b.unit(f"{name}.d3b", b3, 96, 3, p=1)
        b4 = b.pool(f"{name}.pool", src, 3, 1, p=1)
        b4 = b.unit(f"{name}.poolproj", b4, pool_proj, 1)
        return b.concat(f"{name}.concat", [b1, b2, b3, b4])

    t = block_a("a1", t, 32)
    t = block_a("a2", t, 64)
    t = block_a("a3", t, 64)

    b1 = b.unit("ra.3x3", t, 384, 3, s=2)
    b2 = b.unit("ra.d3r", t, 64, 1)
    b2 = b.unit("ra.d3a", b2, 96, 3, p=1)
    b2 = b.unit("ra.d3b", b2, 96, 3, s=2)
    b3 = b.pool("ra.pool", t, 3, 2)
    t = b.concat("ra.concat", [b1, b2, b3])

    def block_b(name, src, c7):
        b1 = b.unit(f"{name}.1x1", src, 192, 1)
        b2 = b.unit(f"{name}.7r", src, c7, 1)
        b2 = b.unit(f"{name}.7a", b2, c7, (1, 7), p=(0, 3))
        b2 = b.unit(f"{name}.7b", b2, 192, (7, 1), p=(3, 0))
        b3 = b.unit(f"{name}.d7r", src, c7, 1)
        b3 = b.unit(f"{name}.d7a", b3, c7, (7, 1), p=(3, 0))
        b3 = b.unit(f"{name}.d7b", b3, c7, (1, 7), p=(0, 3))
        b3 = b.unit(f"{name}.d7c", b3, c7, (7, 1), p=(3, 0))
        b3 = b.unit(f"{name}.d7d", b3, 192, (1, 7), p=(0, 3))
        b4 = b.pool(f"{name}.pool", src, 3, 1, p=1)
        b4 = b.unit(f"{name}.poolproj", b4, 192, 1)
        return b.concat(f"{name}.concat", [b1, b2, b3, b4])

    t = block_b("b1", t, 128)
    t = block_b("b2", t, 160)
    t = block_b("b3", t, 160)
    t = block_b("b4", t, 192)

    b1 = b.unit("rb.3r", t, 192, 1)
    b1 = b.unit("rb.3x3", b1, 320, 3, s=2)
    b2 = b.unit("rb.7r", t, 192, 1)
    b2 = b.unit("rb.7a", b2, 192, (1, 7), p=(0, 3))
    b2 = b.unit("rb.7b", b2, 192, (7, 1), p=(3, 0))
    b2 = b.unit("rb.3x3b", b2, 192, 3, s=2)
    b3 = b.pool("rb.pool", t, 3, 2)
    t = b.concat("rb.concat", [b1, b2, b3])

    def block_c(name, src):
        b1 = b.unit(f"{name}.1x1", src, 320, 1)
        b2 = b.unit(f"{name}.3r", src, 384, 1)
        b2a = b.unit(f"{name}.3a", b2, 384, (1, 3), p=(0, 1))
        b2b = b.unit(f"{name}.3b", b2, 384, (3, 1), p=(1, 0))
        b3 = b.unit(f"{name}.d3r", src, 448, 1)
        b3 = b.unit(f"{name}.d3", b3, 384, 3, p=1)
        b3a = b.unit(f"{name}.d3a", b3, 384, (1, 3), p=(0, 1))
        b3b = b.unit(f"{name}.d3b", b3, 384, (3, 1), p=(1, 0))
        b4 = b.pool(f"{name}.pool", src, 3, 1, p=1)
        b4 = b.unit(f"{name}.poolproj", b4, 192, 1)
        return b.concat(f"{name}.concat", [b1, b2a, b2b, b3a, b3b, b4])

    t = block_c("c1", t)
    t = block_c("c2", t)
    t = b.pool("gpool", t, 8, 1)
    b.fc("fc", t, 1000)
    return b


def _iv4_stem(b):
    t = b.unit("c1", "data", 32, 3, s=2)
    t = b.unit("c2", t, 32, 3)
    t = b.unit("c3", t, 64, 3, p=1)
    p1 = b.pool("m3a.pool", t, 3, 2)
    p2 = b.unit("m3a.conv", t, 96, 3, s=2)
    t = b.concat("m3a.concat", [p1, p2])
    a = b.unit("m4a.a1", t, 64, 1)
    a = b.unit("m4a.a2", a, 96, 3)
    c = b.unit("m4a.b1", t, 64, 1)
    c = b.unit("m4a.b2", c, 64, (1, 7), p=(0, 3))
    c = b.unit("m4a.b3", c, 64, (7, 1), p=(3, 0))
    c = b.unit("m4a.b4", c, 96, 3)
    t = b.concat("m4a.concat", [a, c])
    p1 = b.unit("m5a.conv", t, 192, 3, s=2)
    p2 = b.pool("m5a.pool", t, 3, 2)
    return b.concat("m5a.concat", [p1, p2])


def build_inception_v4():
    b = Builder("inception-v4", h=299)
    t = _iv4_stem(b)

    def block_a(name, src):
        b1 = b.unit(f"{name}.1x1", src, 96, 1)
        b2 = b.unit(f"{name}.3r", src, 64, 1)
        b2 = b.unit(f"{name}.3x3", b2, 96, 3, p=1)
        b3 = b.unit(f"{name}.d3r", src, 64, 1)
        b3 = b.unit(f"{name}.d3a", b3, 96, 3, p=1)
        b3 = b.unit(f"{name}.d3b", b3, 96, 3, p=1)
        b4 = b.pool(f"{name}.pool", src, 3, 1, p=1)
        b4 = b.unit(f"{name}.poolproj", b4, 96, 1)
        return b.concat(f"{name}.concat", [b1, b2, b3, b4])

    for i in range(4):
        t = block_a(f"a{i + 1}", t)

    b1 = b.unit("ra.3x3", t, 384, 3, s=2)
    b2 = b.unit("ra.dr", t, 192, 1)
    b2 = b.unit("ra.da", b2, 224, 3, p=1)
    b2 = b.unit("ra.db", b2, 256, 3, s=2)
    b3 = b.pool("ra.pool", t, 3, 2)
    t = b.concat("ra.concat", [b1, b2, b3])

    def block_b(name, src):
        b1 = b.unit(f"{name}.1x1", src, 384, 1)
        b2 = b.unit(f"{name}.7r", src, 192, 1)
        b2 = b.unit(f"{name}.7a", b2, 224, (1, 7), p=(0, 3))
        b2 = b.unit(f"{name}.7b", b2, 256, (7, 1), p=(3, 0))
        b3 = b.unit(f"{name}.d7r", src, 192, 1)
        b3 = b.unit(f"{name}.d7a", b3, 192, (7, 1), p=(3, 0))
        b3 = b.unit(f"{name}.d7b", b3, 224, (1, 7), p=(0, 3))
        b3 = b.unit(f"{name}.d7c", b3, 224, (7, 1), p=(3, 0))
        b3 = b.unit(f"{name}.d7d", b3, 256, (1, 7), p=(0, 3))
        b4 = b.pool(f"{name}.pool", src, 3, 1, p=1)
        b4 = b.unit(f"{name}.poolproj", b4, 128, 1)
        return b.concat(f"{name}.concat", [b1, b2, b3, b4])

    for i in range(7):
        t = block_b(f"b{i + 1}", t)

    b1 = b.unit("rb.3r", t, 192, 1)
    b1 = b.unit("rb.3x3", b1, 192, 3, s=2)
    b2 = b.unit("rb.7r", t, 256, 1)
    b2 = b.unit("rb.7a", b2, 256, (1, 7), p=(0, 3))
    b2 = b.unit("rb.7b", b2, 320, (7, 1), p=(3, 0))
    b2 = b.unit("rb.3x3b", b2, 320, 3, s=2)
    b3 = b.pool("rb.pool", t, 3, 2)
    t = b.concat("rb.concat", [b1, b2, b3])

    def block_c(name, src):
        b1 = b.unit(f"{name}.1x1", src, 256, 1)
        b2 = b.unit(f"{name}.3r", src, 384, 1)
        b2a = b.unit(f"{name}.3a", b2, 256, (1, 3), p=(0, 1))
        b2b = b.unit(f"{name}.3b", b2, 256, (3, 1), p=(1, 0))
        b3 = b.unit(f"{name}.d3r", src, 384, 1)
        b3 = b.unit(f"{name}.d3a", b3, 448, (1, 3), p=(0, 1))
        b3 = b.unit(f"{name}.d3b", b3, 512, (3, 1), p=(1, 0))
        b3a = b.unit(f"{name}.d3c", b3, 256, (3, 1), p=(1, 0))
        b3b = b.unit(f"{name}.d3d", b3, 256, (1, 3), p=(0, 1))
        b4 = b.pool(f"{name}.pool", src, 3, 1, p=1)
        b4 = b.unit(f"{name}.poolproj", b4, 256, 1)
        return b.concat(f"{name}.concat", [b1, b2a, b2b, b3a, b3b, b4])

    for i in range(3):
        t = block_c(f"c{i + 1}", t)
    t = b.pool("gpool", t, 8, 1)
    t = b.copy("drop", t)
    b.fc("fc", t, 1000)
    return b


def build_inception_resnet_v2():
    b = Builder("inception-resnet-v2", h=299)
    t = b.unit("c1", "data", 32, 3, s=2)
    t = b.unit("c2", t, 32, 3)
    t = b.unit("c3", t, 64, 3, p=1)
    t = b.pool("pool1", t, 3, 2)
    t = b.unit("c4", t, 80, 1)
    t = b.unit("c5", t, 192, 3)
    t = b.pool("pool2", t, 3, 2)
    b1 = b.unit("m5b.1x1", t, 96, 1)
    b2 = b.unit("m5b.5r", t, 48, 1)
    b2 = b.unit("m5b.5x5", b2, 64, 5, p=2)
    b3 = b.unit("m5b.d3r", t, 64, 1)
    b3 = b.unit("m5b.d3a", b3, 96, 3, p=1)
    b3 = b.unit("m5b.d3b", b3, 96, 3, p=1)
    b4 = b.pool("m5b.pool", t, 3, 1, p=1)
    b4 = b.unit("m5b.poolproj", b4, 64, 1)
    t = b.concat("m5b.concat", [b1, b2, b3, b4])

    def block35(name, src):
        b1 = b.unit(f"{name}.b1", src, 32, 1)
        b2 = b.unit(f"{name}.b2a", src, 32, 1)
        b2 = b.unit(f"{name}.b2b", b2, 32, 3, p=1)
        b3 = b.unit(f"{name}.b3a", src, 32, 1)
        b3 = b.unit(f"{name}.b3b", b3, 48, 3, p=1)
        b3 = b.unit(f"{name}.b3c", b3, 64, 3, p=1)
        cat = b.concat(f"{name}.concat", [b1, b2, b3])
        proj = b.conv(f"{name}.proj", cat, 320, 1)
        s = b.add(f"{name}.add", src, proj)
        return b.relu(f"{name}.relu", s)

    for i in range(10):
        t = block35(f"ir35.{i + 1}", t)

    b1 = b.unit("ra.3x3", t, 384, 3, s=2)
    b2 = b.unit("ra.dr", t, 256, 1)
    b2 = b.unit("ra.da", b2, 256, 3, p=1)
    b2 = b.unit("ra.db", b2, 384, 3, s=2)
    b3 = b.pool("ra.pool", t, 3, 2)
    t = b.concat("ra.concat", [b1, b2, b3])

    def block17(name, src):
        b1 = b.unit(f"{name}.b1", src, 192, 1)
        b2 = b.unit(f"{name}.b2a", src, 128, 1)
        b2 = b.unit(f"{name}.b2b", b2, 160, (1, 7), p=(0, 3))
        b2 = b.unit(f"{name}.b2c", b2, 192, (7, 1), p=(3, 0))
        cat = b.concat(f"{name}.concat", [b1, b2])
        proj = b.conv(f"{name}.proj", cat, 1088, 1)
        s = b.add(f"{name}.add", src, proj)
        return b.relu(f"{name}.relu", s)

    for i in range(20):
        t = block17(f"ir17.{i + 1}", t)

    b1 = b.unit("rb.r1", t, 256, 1)
    b1 = b.unit("rb.c1", b1, 384, 3, s=2)
    b2 = b.unit("rb.r2", t, 256, 1)
    b2 = b.unit("rb.c2", b2, 288, 3, s=2)
    b3 = b.unit("rb.r3", t, 256, 1)
    b3 = b.unit("rb.c3a", b3, 288, 3, p=1)
    b3 = b.unit("rb.c3b", b3, 320, 3, s=2)
    b4 = b.pool("rb.pool", t, 3, 2)
    t = b.concat("rb.concat", [b1, b2, b3, b4])

    def block8(name, src, act=True):
        b1 = b.unit(f"{name}.b1", src, 192, 1)
        b2 = b.unit(f"{name}.b2a", src, 192, 1)
        b2 = b.unit(f"{name}.b2b", b2, 224, (1, 3), p=(0, 1))
        b2 = b.unit(f"{name}.b2c", b2, 256, (3, 1), p=(1, 0))
        cat = b.concat(f"{name}.concat", [b1, b2])
        proj = b.conv(f"{name}.proj", cat, 2080, 1)
        s = b.add(f"{name}.add", src, proj)
        if act:
            return b.relu(f"{name}.relu", s)
        return s

    for i in range(9):
        t = block8(f"ir8.{i + 1}", t, act=(i < 8))

    t = b.unit("conv7b", t, 1536, 1)
    t = b.pool("gpool", t, 8, 1)
    b.fc("fc", t, 1000)
    return b


def _xception_sep(b, name, src, cin, out, act=True):
    t = b.conv(f"{name}.dw", src, cin, 3, p=1, g=cin)
    t = b.conv(f"{name}.pw", t, out, 1)
    t = b.bn_pair(name, t)
    if act:
        t = b.relu(f"{name}.relu", t)
    return t


def build_xception():
    b = Builder("xceptionnet", h=299)
    t = b.unit("c1", "data", 32, 3, s=2)
    t = b.unit("c2", t, 64, 3)

    def entry(name, src, cin, out):
        u = _xception_sep(b, f"{name}.s1", src, cin, out)
        u = _xception_sep(b, f"{name}.s2", u, out, out, act=False)
        u = b.pool(f"{name}.pool", u, 3, 2, p=1)
        sc = b.conv(f"{name}.sc", src, out, 1, s=2)
        sc = b.bn_pair(f"{name}.sc", sc)
        return b.add(f"{name}.add", sc, u)

    t = entry("e1", t, 64, 128)
    t = entry("e2", t, 128, 256)
    t = entry("e3", t, 256, 728)

    for i in range(8):
        base = f"mid{i + 1}"
        u = _xception_sep(b, f"{base}.s1", t, 728, 728)
        u = _xception_sep(b, f"{base}.s2", u, 728, 728)
        u = _xception_sep(b, f"{base}.s3", u, 728, 728, act=False)
        t = b.add(f"{base}.add", t, u)

    u = _xception_sep(b, "x1.s1", t, 728, 728)
    u = _xception_sep(b, "x1.s2", u, 728, 1024, act=False)
    u = b.pool("x1.pool", u, 3, 2, p=1)
    sc = b.conv("x1.sc", t, 1024, 1, s=2)
    sc = b.bn_pair("x1.sc", sc)
    t = b.add("x1.add", sc, u)

    t = _xception_sep(b, "x2", t, 1024, 1536)
    t = _xception_sep(b, "x3", t, 1536, 2048)
    t = b.pool("gpool", t, 10, 1)
    b.fc("fc", t, 1000)
    return b


def _sqnxt_block(b, name, src, cin, out, stride, g=1):
    need_sc = stride != 1 or cin != out
    t = b.unit(f"{name}.a", src, cin // 2, 1, s=stride)
    t = b.unit(f"{name}.b", t, cin // 4, 1)
    t = b.unit(f"{name}.c", t, cin // 2, (1, 3), p=(0, 1), g=g)
    t = b.unit(f"{name}.d", t, cin // 2, (3, 1), p=(1, 0), g=g)
    t = b.unit(f"{name}.e", t, out, 1)
    if need_sc:
        sc = b.unit(f"{name}.sc", src, out, 1, s=stride, act=False)
    else:
        sc = src
    return b.add(f"{name}.add", sc, t)


def _build_sqnxt(name, blocks, stem_k=7, groups=1):
    b = Builder(name)
    pad = 2 if stem_k == 7 else 1
    t = b.unit("conv1", "data", 64, stem_k, s=2, p=pad)
    t = b.pool("pool1", t, 3, 2)
    widths = [32, 64, 128, 256]
    ch = 64
    for stage, reps in enumerate(blocks):
        for i in range(reps):
            stride = 2 if (stage > 0 and i == 0) else 1
            nm = f"s{stage + 1}.b{i + 1}"
            t = _sqnxt_block(b, nm, t, ch, widths[stage], stride, groups)
            ch = widths[stage]
    t = b.unit("conv_last", t, 128, 1)
    t = b.pool("gpool", t, 7, 1)
    b.fc("fc", t, 1000)
    return b


def build_sqnxt23():
    return _build_sqnxt("sqnxt-23", [6, 6, 8, 1])


def build_sqnxt23v5():
    return _build_sqnxt("sqnxt-23v5", [2, 4, 14, 1], stem_k=5)


def build_g_sqnxt23():
    return _build_sqnxt("g-sqnxt-23", [6, 6, 8, 1], groups=2)


BUILDERS = {
    "alexnet": build_alexnet,
    "vgg-16": build_vgg16,
    "nin": build_nin,
    "googlenet": build_googlenet,
    "inception-v2": build_inception_v2,
    "inception-v3": build_inception_v3,
    "inception-v4": build_inception_v4,
    "resnet-50": build_resnet50,
    "resnet-101": build_resnet101,
    "resnet-152": build_resnet152,
    "resnet101-v2": build_resnet101_v2,
    "resnet152-v2": build_resnet152_v2,
    "inception-resnet-v2": build_inception_resnet_v2,
    "resnext50-32x4d": build_resnext50,
    "resnext101-32x4d": build_resnext101,
    "densenet-121": build_densenet121,
    "densenet-169": build_densenet169,
    "squeezenet-v1.0": build_squeezenet10,
    "squeezenet-v1.1": build_squeezenet11,
    "sqnxt-23": build_sqnxt23,
    "sqnxt-23v5": build_sqnxt23v5,
    "g-sqnxt-23": build_g_sqnxt23,
    "mobilenet-v1": build_mobilenet_v1,
    "mobilenet-v2": build_mobilenet_v2,
    "xceptionnet": build_xception,
}


def load_reference():
    path = ROOT / "fixtures" / "reference_metrics.csv"
    ref = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            ref[row["model"]] = {k: float(v) for k, v in row.items() if k != "model"}
    return ref


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--only", help="build a single model")
    args = ap.parse_args()
    ref = load_reference()
    outdir = ROOT / "fixtures" / "models"
    outdir.mkdir(parents=True, exist_ok=True)
    names = [args.only] if args.only else list(BUILDERS)
    macs_by_model = {}
    print(f"{'model':24} {'macs':>12} {'weights':>10} {'acts':>10} "
          f"{'rw':>8} {'ref':>8} {'d%':>6}  {'ra':>8} {'ref':>8} {'d%':>6}")
    for name in names:
        doc = BUILDERS[name]().doc()
        text = yaml.safe_dump(doc, sort_keys=False)
        graph = parse_model(text)
        out = serialize_model(graph)
        (outdir / f"{name}.yaml").write_text(out)
        prof = aggregate(graph)
        macs_by_model[name] = prof.macs
        r = ref.get(name)
        rw, ra = prof.weight_reuse, prof.activation_reuse
        if r:
            dw = 100 * (rw / r["mc_over_w"] - 1)
            da = 100 * (ra / r["mc_over_a"] - 1)
            print(f"{name:24} {prof.macs:12.4e} {prof.weights:10.3e} {prof.activations:10.3e} "
                  f"{rw:8.2f} {r['mc_over_w']:8.2f} {dw:+6.1f}  {ra:8.2f} {r['mc_over_a']:8.2f} {da:+6.1f}")
        else:
            print(f"{name:24} {prof.macs:12.4e} {prof.weights:10.3e} {prof.activations:10.3e} "
                  f"{rw:8.2f} {'-':>8} {'-':>6}  {ra:8.2f} {'-':>8} {'-':>6}")
    if not args.only:
        refresh_macs_column(macs_by_model)


def refresh_macs_column(macs_by_model):
    """Rewrite the reference CSV's macs column from the built models.

    Reference ratios stay untouched; only the analyzer-derived MAC count
    is refreshed so calibration runs join ratios with real work counts.
    """
    path = ROOT / "fixtures" / "reference_metrics.csv"
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0].keys())
    if "macs" not in fields:
        fields.append("macs")
    for row in rows:
        row["macs"] = str(int(macs_by_model[row["model"]]))
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


if __name__ == "__main__":
    main()
