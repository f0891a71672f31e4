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

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # graph imports this module to cost each layer it shapes
    from .graph import LayerSpec, TensorShape


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

    The LayerCost is built by filling a new instance's fields in one step,
    without the generated constructor; it equals, hashes and prints as
    LayerCost(macs, weights, activations) does.
    """
    kind = spec.kind
    cost = object.__new__(LayerCost)
    if spec.in_place:  # relu or batchnorm, the graph has checked
        cost.__dict__.update(macs=0, weights=2 * out_shape.channels if kind == "batchnorm" else 0, activations=0)
        return cost
    if kind == "conv":
        p = spec.params
        weights = (in_shapes[0].channels // p["groups"]) * p["kernel_h"] * p["kernel_w"] * p["out_channels"]
        macs = weights * out_shape.height * out_shape.width
    elif kind == "fc":
        macs = weights = in_shapes[0].element_count() * spec.params["out_features"]
    else:
        macs = 0
        weights = 2 * out_shape.channels if kind == "batchnorm" else 0
    activations = sum(s.element_count() for s in in_shapes) + out_shape.element_count()
    cost.__dict__.update(macs=macs, weights=weights, activations=activations)
    return cost
