"""Per-layer work and data counts: MACs, weights, activations.

Convolution covers the standard, pointwise, group, and depthwise
families through one grouped formula; depthwise is the g = M = N
special case. Biases are excluded from weight counts everywhere, and
pooling is counted as zero-MAC (comparisons, not multiplies).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graph import LayerSpec, ShapeError, TensorShape

CONV_FAMILIES = ("standard", "pointwise", "group", "depthwise")


@dataclass(frozen=True)
class LayerCost:
    """Work and data volume of a single layer.

    `activations` counts ifmap plus ofmap elements for the layer in
    isolation; whole-network totals deduplicate shared tensors (see
    netprofile.aggregate).
    """

    macs: int
    weights: int
    activations: int

    def weight_reuse(self) -> float:
        if self.weights <= 0:
            raise InputError("weight reuse undefined for a layer without weights")
        return self.macs / self.weights

    def activation_reuse(self) -> float:
        if self.activations <= 0:
            raise InputError("activation reuse undefined for a layer without activations")
        return self.macs / self.activations


def conv_cost(in_shape: TensorShape, spec: LayerSpec, out_shape: TensorShape) -> LayerCost:
    """Grouped-convolution cost; g=1 standard, kernel 1x1 pointwise, g=M=N depthwise."""
    m = in_shape.channels
    n, g = spec.params["out_channels"], spec.params["groups"]
    if g < 1 or m % g or n % g:
        raise ShapeError(f"layer {spec.name!r}: groups {g} must divide input channels {m} and out_channels {n}")
    kh, kw = spec.params["kernel_h"], spec.params["kernel_w"]
    if out_shape.channels != n:
        raise InputError(f"output shape carries {out_shape.channels} channels, conv produces {n}")
    kernel_volume = (m // g) * kh * kw
    macs = kernel_volume * n * out_shape.height * out_shape.width
    weights = kernel_volume * n
    activations = in_shape.element_count() + out_shape.element_count()
    return LayerCost(macs, weights, activations)


def fc_cost(in_elements: int, out_features: int) -> LayerCost:
    """Fully connected layer over a flattened input; biases excluded."""
    if in_elements < 1 or out_features < 1:
        raise InputError("fc needs at least one input element and one output feature")
    return LayerCost(in_elements * out_features, in_elements * out_features, in_elements + out_features)


def nonconv_cost(kind: str, in_shapes, out_shape: TensorShape, in_place: bool = False) -> LayerCost:
    """Zero-MAC layers: pooling, elementwise ops, shape plumbing.

    In-place layers reuse their producer's tensor, so they contribute no
    activations of their own. Batchnorm owns the per-channel affine
    scale and shift, hence 2C weights.
    """
    if kind not in ("pool", "relu", "batchnorm", "add", "concat", "input"):
        raise InputError(f"nonconv_cost does not handle kind {kind!r}")
    weights = 2 * out_shape.channels if kind == "batchnorm" else 0
    if in_place:
        activations = 0
    elif kind == "input":
        activations = out_shape.element_count()
    else:
        activations = sum(s.element_count() for s in in_shapes) + out_shape.element_count()
    return LayerCost(0, weights, activations)


def layer_cost(spec: LayerSpec, in_shapes, out_shape: TensorShape) -> LayerCost:
    """Cost of one layer from the shapes of its inputs and its output."""
    if spec.kind == "conv":
        return conv_cost(in_shapes[0], spec, out_shape)
    if spec.kind == "fc":
        return fc_cost(in_shapes[0].element_count(), spec.params["out_features"])
    return nonconv_cost(spec.kind, in_shapes, out_shape, spec.in_place)


def closed_form_ai(family: str, m: int, n: int, s_k: int, s_o: int, g: int = 1) -> dict:
    """Square-symbol closed forms for reuse and arithmetic intensity.

    Assumes square kernels and feature maps with ifmap and ofmap of
    equal spatial size s_o (stride 1, same padding). Weight reuse is
    s_o**2 for every family; activation reuse and intensity are family
    specific.
    """
    if family not in CONV_FAMILIES:
        raise InputError(f"unknown convolution family {family!r}")
    if min(m, n, s_k, s_o, g) < 1:
        raise InputError("all closed-form parameters must be >= 1")
    if family == "standard" and g != 1:
        raise InputError("standard convolution has g = 1")
    if family == "pointwise" and (s_k != 1 or g != 1):
        raise InputError("pointwise convolution has s_k = 1 and g = 1")
    if family == "group" and (m % g or n % g):
        raise InputError(f"groups {g} must divide m = {m} and n = {n}")
    if family == "depthwise" and not (m == n == g):
        raise InputError("depthwise convolution requires m = n = g")

    weight_reuse = float(s_o * s_o)
    if family == "standard":
        activation_reuse = m * n / (m + n) * s_k * s_k
        ai = m * n * s_k**2 * s_o**2 / (m * n * s_k**2 + (m + n) * s_o**2)
    elif family == "pointwise":
        activation_reuse = m * n / (m + n)
        ai = m * n * s_o**2 / (m * n + (m + n) * s_o**2)
    elif family == "group":
        activation_reuse = m * n / (m + n) * s_k * s_k / g
        ai = (m / g) * n * s_k**2 * s_o**2 / ((m / g) * n * s_k**2 + (m + n) * s_o**2)
    else:
        activation_reuse = s_k * s_k / 2
        ai = m * s_k**2 * s_o**2 / (m * s_k**2 + 2 * m * s_o**2)
    return {"ai": ai, "weight_reuse": weight_reuse, "activation_reuse": activation_reuse}
