"""Per-layer work and data counts: MACs, weights, activations.

Convolution covers the standard, pointwise, group, and depthwise
families through one grouped formula; depthwise is the g = M = N
special case. Biases are excluded from weight counts everywhere, and
pooling is counted as zero-MAC (comparisons, not multiplies).

layer_cost costs every kind in one function and takes the shapes as
graph.infer_shapes produces them, already checked: the groups check
(groups must divide both channel counts) is the graph's, made while it
shapes a conv layer, before the layer is costed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InputError, integer

if TYPE_CHECKING:  # graph imports this module to cost each layer it shapes
    from .graph import LayerSpec, TensorShape

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


def layer_cost(spec: LayerSpec, in_shapes, out_shape: TensorShape) -> LayerCost:
    """Cost of one layer from the shapes of its inputs and its output.

    Only conv (grouped) and fc (over the flattened input) do MACs;
    batchnorm owns the per-channel affine scale and shift, hence 2C
    weights. Activations are the input plus the output elements, so the
    input layer, which has no inputs, counts its output alone; an
    in-place layer reuses its producer's tensor and counts none.
    """
    kind = spec.kind
    if kind == "conv":
        p = spec.params
        weights = (in_shapes[0].channels // p["groups"]) * p["kernel_h"] * p["kernel_w"] * p["out_channels"]
        macs = weights * out_shape.height * out_shape.width
    elif kind == "fc":
        macs = weights = in_shapes[0].element_count() * spec.params["out_features"]
    else:
        macs = 0
        weights = 2 * out_shape.channels if kind == "batchnorm" else 0
    activations = 0 if spec.in_place else sum(s.element_count() for s in in_shapes) + out_shape.element_count()
    return LayerCost(macs, weights, activations)


def closed_form_ai(family: str, m: int, n: int, s_k: int, s_o: int, g: int = 1) -> dict:
    """Square-symbol closed forms for reuse and arithmetic intensity.

    Assumes square kernels and feature maps with ifmap and ofmap of
    equal spatial size s_o (stride 1, same padding). Weight reuse is
    s_o**2 for every family; activation reuse and intensity are family
    specific. Sizes whose forms leave float range on the way are refused.
    """
    if family not in CONV_FAMILIES:
        raise InputError(f"unknown convolution family {family!r}")
    for value, what in zip((m, n, s_k, s_o, g), ("m", "n", "s_k", "s_o", "g")):
        integer(value, what)
    if family == "standard" and g != 1:
        raise InputError("standard convolution has g = 1")
    if family == "pointwise" and (s_k != 1 or g != 1):
        raise InputError("pointwise convolution has s_k = 1 and g = 1")
    if family == "group" and (m % g or n % g):
        raise InputError(f"groups {g} must divide m = {m} and n = {n}")
    if family == "depthwise" and not (m == n == g):
        raise InputError("depthwise convolution requires m = n = g")

    try:
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
        if all(map(math.isfinite, (ai, weight_reuse, activation_reuse))):  # a float product past float max is inf, inf / inf NaN
            return {"ai": ai, "weight_reuse": weight_reuse, "activation_reuse": activation_reuse}
    except OverflowError:  # an int too large to convert to a float
        pass
    raise InputError(f"closed forms of this {family} convolution leave float range")
