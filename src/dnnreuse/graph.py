"""Layer-graph model: parsing, validation, shape inference, topological order.

A model document is YAML (JSON works too) with the shape

    name: alexnet            # optional
    input: {channels: 3, h: 224, w: 224}
    layers:
      - {name: data, kind: input}
      - {name: conv1, kind: conv, inputs: [data], out_channels: 96,
         kernel_h: 11, kernel_w: 11, stride_h: 4, stride_w: 4, pad_h: 2, pad_w: 2}
      - {name: relu1, kind: relu, inputs: [conv1]}

Exactly one layer has kind "input"; its shape comes from the top-level
`input` mapping. Edges are implied by each layer's `inputs` list.
parse_model maps a document to layers and fills each kind's defaults;
ModelGraph checks the layers, parsed or built by hand: each kind's
parameters, the in-place flag, names and edges (see topo_order).

dnnreuse.document loads the text: a document starting with `{` is read
by json.loads, falling back to YAML if it is not JSON, and YAML is read
by libyaml when PyYAML has it. The one number form the two read
differently is an unquoted exponent without a dot: `1e3` is 1000.0 in
JSON and the string '1e3' in YAML. Every integer field refuses both, so
the form matters only as a name, which must be a string in JSON.
"""

from __future__ import annotations

import copy
import heapq
import reprlib
from dataclasses import dataclass, field

import yaml

from .document import load_document
from .errors import _FLOAT_MAX, InputError, sorted_keys


class ModelError(InputError):
    """Any invalid model document or graph."""


class ModelSyntaxError(ModelError):
    """Document is not well-formed YAML/JSON or not the expected structure."""


class UnknownKindError(ModelError):
    """Layer kind outside the supported set."""


class DuplicateNameError(ModelError):
    """Two layers share a name."""


class DanglingInputError(ModelError):
    """A layer references a producer that does not exist."""


class CycleError(ModelError):
    """The layer graph is not acyclic."""


class ShapeError(ModelError):
    """Shape inference produced a non-positive or inconsistent dimension."""


LAYER_KINDS = ("input", "conv", "fc", "pool", "relu", "batchnorm", "add", "concat")
IN_PLACE_KINDS = ("relu", "batchnorm")

# Parameter schema per kind: {param: (document default, minimum)}; a default of None means required.
_CONV_PARAMS = {
    "out_channels": (None, 1),
    "kernel_h": (None, 1),
    "kernel_w": (None, 1),
    "stride_h": (1, 1),
    "stride_w": (1, 1),
    "pad_h": (0, 0),
    "pad_w": (0, 0),
    "groups": (1, 1),
}
_LAYER_FIELDS = ("name", "kind", "inputs", "in_place")  # the document fields that are not parameters
_POOL_PARAMS = {k: v for k, v in _CONV_PARAMS.items() if k not in ("out_channels", "groups")}
_PARAM_SCHEMA = {
    "input": {},
    "conv": _CONV_PARAMS,
    "fc": {"out_features": (None, 1)},
    "pool": _POOL_PARAMS,
    "relu": {},
    "batchnorm": {},
    "add": {},
    "concat": {},
}


@dataclass(frozen=True)
class TensorShape:
    """Channels x height x width extent of one feature-map tensor."""

    channels: int
    height: int
    width: int

    def __post_init__(self):
        for dim in (self.channels, self.height, self.width):
            if not isinstance(dim, int) or dim < 1:
                raise ShapeError(f"tensor dimensions must be integers >= 1, got {self!r}")

    def element_count(self) -> int:
        return self.channels * self.height * self.width


@dataclass(frozen=True)
class LayerSpec:
    """One node of the layer graph; `params` holds every parameter of its kind.

    `in_place` (relu and batchnorm only) means the layer writes into its
    producer's storage and produces no tensor of its own.
    """

    name: str
    kind: str
    inputs: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)
    in_place: bool = False


@dataclass(frozen=True)
class ModelGraph:
    """Layers in execution order plus the network input shape.

    The constructor checks the layers it is given, whether parsed or
    built by hand (see topo_order), and stores them in execution order:
    producers precede consumers, ties kept in the given order. Every
    pass walks `layers`. `shapes` maps layer name to output TensorShape
    and `costs` maps it to LayerCost; both are empty until
    infer_shapes() has run.
    """

    name: str
    input_shape: TensorShape
    layers: tuple[LayerSpec, ...]
    shapes: dict = field(default_factory=dict)
    costs: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(topo_order(self)))

    def layer(self, name: str) -> LayerSpec:
        for spec in self.layers:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def output_shape(self, name: str) -> TensorShape:
        if name not in self.shapes:
            raise ShapeError(f"no inferred shape for layer {name!r}; run infer_shapes first")
        return self.shapes[name]

    def cost(self, name: str):
        if name not in self.costs:
            raise ShapeError(f"no inferred cost for layer {name!r}; run infer_shapes first")
        return self.costs[name]


def _expect_mapping(value, what):
    if not isinstance(value, dict):
        raise ModelSyntaxError(f"{what} must be a mapping, got {type(value).__name__}")
    return value


def _positive_int(value, what, minimum=1):
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ModelSyntaxError(f"{what} must be an integer >= {minimum}, got {reprlib.repr(value)}")
    if value > _FLOAT_MAX:  # refused as errors.finite refuses every other number beyond float range
        raise ModelSyntaxError(f"{what} must be within float range, got {reprlib.repr(value)}")
    return value


def _parse_input_shape(doc) -> TensorShape:
    raw = _expect_mapping(doc.get("input"), "top-level `input`")
    extra = set(raw) - {"channels", "h", "w"}
    if extra:
        raise ModelSyntaxError(f"unknown input fields: {sorted_keys(extra)}")
    return TensorShape(
        _positive_int(raw.get("channels"), "input.channels"),
        _positive_int(raw.get("h"), "input.h"),
        _positive_int(raw.get("w"), "input.w"),
    )


def _parse_layer(raw, position) -> LayerSpec:
    raw = _expect_mapping(raw, f"layers[{position}]")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ModelSyntaxError(f"layers[{position}] needs a non-empty string `name`")
    kind = raw.get("kind")
    inputs = raw.get("inputs", [])
    if not isinstance(inputs, list) or not all(isinstance(i, str) for i in inputs):
        raise ModelSyntaxError(f"layer {name!r}: `inputs` must be a list of layer names")
    schema = _PARAM_SCHEMA[kind] if kind in LAYER_KINDS else {}  # a kind may be any value, even unhashable
    params = {key: raw.get(key, default) for key, (default, _) in schema.items() if key in raw or default is not None}
    params.update({key: value for key, value in raw.items() if key not in params and key not in _LAYER_FIELDS})
    in_place = raw.get("in_place")
    if in_place is None:  # absent or null: the kind's default
        in_place = kind in IN_PLACE_KINDS
    return LayerSpec(name=name, kind=kind, inputs=tuple(inputs), params=params, in_place=in_place)


def _check_fields(spec: LayerSpec) -> None:
    """Refuse a layer's parameters outside its kind's schema, and an in_place flag it may not carry."""
    schema = _PARAM_SCHEMA[spec.kind]
    where = f"layer {spec.name!r}: "  # formatted once per layer, not once per parameter
    extra = spec.params.keys() - schema.keys()
    if extra:
        raise ModelSyntaxError(f"{where}unknown fields for kind {spec.kind}: {sorted_keys(extra)}")
    for key, (_, minimum) in schema.items():
        if key not in spec.params:
            raise ModelSyntaxError(f"{where}kind {spec.kind} requires `{key}`")
        _positive_int(spec.params[key], where + key, minimum)
    if spec.in_place is not False and spec.kind not in IN_PLACE_KINDS:
        raise ModelSyntaxError(f"{where}in_place only applies to relu/batchnorm")
    if not isinstance(spec.in_place, bool):
        raise ModelSyntaxError(f"{where}in_place must be a boolean")


# Length of the `inputs` list per kind as (min, max); every kind not listed takes exactly one.
_ARITY = {"input": (0, 0), "add": (2, None), "concat": (2, None)}


def parse_model(text: str, name: str | None = None) -> ModelGraph:
    """Map a model document to an unannotated graph, which checks itself.

    The optional `name` is a fallback used when the document carries no
    top-level name (the CLI passes the file stem).
    """
    doc = _expect_mapping(load_document(text, ModelSyntaxError), "model document")
    extra = set(doc) - {"name", "input", "layers"}
    if extra:
        raise ModelSyntaxError(f"unknown top-level fields: {sorted_keys(extra)}")
    if "name" in doc and (not isinstance(doc["name"], str) or not doc["name"]):
        raise ModelSyntaxError("top-level `name` must be a non-empty string")

    input_shape = _parse_input_shape(doc)
    raw_layers = doc.get("layers")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ModelSyntaxError("top-level `layers` must be a non-empty list")

    return ModelGraph(
        name=doc.get("name") or name or "model",
        input_shape=input_shape,
        layers=tuple(_parse_layer(raw, i) for i, raw in enumerate(raw_layers)),
    )


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


def topo_order(graph: ModelGraph) -> list[LayerSpec]:
    """Layers ordered so producers precede consumers, after checking them.

    Refuses, each over all layers in turn: fields a layer's kind does not
    allow (_check_fields), an unknown kind, a repeated name, other than
    exactly one input layer, a wrong number of inputs, an input naming
    no layer, and a cycle. Ties are broken by declaration order, which
    keeps every report and golden file deterministic.
    """
    layers = graph.layers
    for spec in layers:
        if spec.kind in LAYER_KINDS:
            _check_fields(spec)
    position: dict[str, int] = {}
    for i, spec in enumerate(layers):
        if spec.kind not in LAYER_KINDS:
            raise UnknownKindError(
                f"layer {spec.name!r}: unknown kind {reprlib.repr(spec.kind)} (expected one of {', '.join(LAYER_KINDS)})"
            )
        if position.setdefault(spec.name, i) != i:
            raise DuplicateNameError(f"duplicate layer name {spec.name!r}")
    input_nodes = sum(spec.kind == "input" for spec in layers)
    if input_nodes != 1:
        raise ModelSyntaxError(f"exactly one kind=input layer required, found {input_nodes}")

    indegree = [len(spec.inputs) for spec in layers]
    consumers: list[list[int]] = [[] for _ in layers]
    for i, spec in enumerate(layers):
        lo, hi = _ARITY.get(spec.kind, (1, 1))
        if indegree[i] < lo or (hi is not None and indegree[i] > hi):
            want = f"exactly {lo}" if lo == hi else f"at least {lo}"
            raise ModelSyntaxError(f"layer {spec.name!r}: kind {spec.kind} takes {want} input(s), got {indegree[i]}")
        for ref in spec.inputs:
            if ref not in position:
                raise DanglingInputError(f"layer {spec.name!r}: input {ref!r} does not exist")
            consumers[position[ref]].append(i)

    ready = [i for i, d in enumerate(indegree) if d == 0]  # ascending, so already a heap
    ordered = []
    while ready:
        i = heapq.heappop(ready)
        ordered.append(layers[i])
        for consumer in consumers[i]:
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                heapq.heappush(ready, consumer)

    if len(ordered) != len(layers):
        stuck = sorted(spec.name for spec, d in zip(layers, indegree) if d > 0)
        raise CycleError(f"cycle detected involving layers: {', '.join(stuck)}")
    return ordered


def _conv_like_shape(spec: LayerSpec, in_shape: TensorShape, channels: int) -> TensorShape:
    p = spec.params
    span_h = in_shape.height + 2 * p["pad_h"] - p["kernel_h"]
    span_w = in_shape.width + 2 * p["pad_w"] - p["kernel_w"]
    if span_h < 0 or span_w < 0:
        raise ShapeError(
            f"layer {spec.name!r}: kernel {p['kernel_h']}x{p['kernel_w']} exceeds padded input "
            f"{in_shape.height}x{in_shape.width}"
        )
    return TensorShape(channels, span_h // p["stride_h"] + 1, span_w // p["stride_w"] + 1)


def infer_shapes(graph: ModelGraph) -> ModelGraph:
    """Annotate every layer with its output shape and its cost; returns a new graph."""
    from .layercost import layer_cost  # layercost imports this module

    shapes: dict[str, TensorShape] = {}
    costs = {}
    for spec in graph.layers:
        ins = [shapes[ref] for ref in spec.inputs]
        if spec.kind == "input":
            out = graph.input_shape
        elif spec.kind == "conv":
            out = _conv_like_shape(spec, ins[0], spec.params["out_channels"])
        elif spec.kind == "pool":
            out = _conv_like_shape(spec, ins[0], ins[0].channels)
        elif spec.kind == "fc":
            out = TensorShape(spec.params["out_features"], 1, 1)
        elif spec.kind in ("relu", "batchnorm"):
            out = ins[0]
        elif spec.kind == "add":
            if any(s != ins[0] for s in ins[1:]):
                raise ShapeError(f"layer {spec.name!r}: add operands disagree: {[tuple((s.channels, s.height, s.width)) for s in ins]}")
            out = ins[0]
        else:  # concat
            if any((s.height, s.width) != (ins[0].height, ins[0].width) for s in ins[1:]):
                raise ShapeError(f"layer {spec.name!r}: concat operands disagree on spatial dims")
            out = TensorShape(sum(s.channels for s in ins), ins[0].height, ins[0].width)
        shapes[spec.name] = out
        costs[spec.name] = cost = layer_cost(spec, ins, out)
        # refused here, so every command refuses it alike
        if cost.macs > _FLOAT_MAX or cost.weights > _FLOAT_MAX or cost.activations > _FLOAT_MAX:
            what, count = max(vars(cost).items(), key=lambda item: item[1])
            raise ShapeError(f"layer {spec.name!r}: {what} must be within float range, got {reprlib.repr(count)}")
    annotated = copy.copy(graph)  # the layers are checked and ordered already; replace() would redo both
    vars(annotated).update(shapes=shapes, costs=costs)
    return annotated
