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

dnnreuse.document loads the text: a document starting with `{` is read
by json.loads, falling back to YAML if it is not JSON, and YAML is read
by libyaml when PyYAML has it. The one number form the two read
differently is an unquoted exponent without a dot: `1e3` is 1000.0 in
JSON and the string '1e3' in YAML. Every integer field refuses both, so
the form matters only as a name, which must be a string in JSON.
"""

from __future__ import annotations

import heapq
import reprlib
from dataclasses import dataclass, field, replace

import yaml

from .document import load_document
from .errors import InputError


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

# Parameter schema per kind: {param: (required, default, minimum)}.
_CONV_PARAMS = {
    "out_channels": (True, None, 1),
    "kernel_h": (True, None, 1),
    "kernel_w": (True, None, 1),
    "stride_h": (False, 1, 1),
    "stride_w": (False, 1, 1),
    "pad_h": (False, 0, 0),
    "pad_w": (False, 0, 0),
    "groups": (False, 1, 1),
}
_POOL_PARAMS = {k: v for k, v in _CONV_PARAMS.items() if k not in ("out_channels", "groups")}
_PARAM_SCHEMA = {
    "input": {},
    "conv": _CONV_PARAMS,
    "fc": {"out_features": (True, None, 1)},
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
    """One node of the layer graph, as written in the document."""

    name: str
    kind: str
    inputs: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)
    in_place: bool = False

    @property
    def aliases_input(self) -> bool:
        """True when the layer writes into its producer's storage, producing no tensor."""
        return self.in_place and self.kind in IN_PLACE_KINDS

    def check_groups(self, in_channels: int) -> int:
        """Groups of this conv, after checking they divide both channel counts."""
        n, g = self.params["out_channels"], self.params["groups"]
        if g < 1 or in_channels % g or n % g:
            raise ShapeError(
                f"layer {self.name!r}: groups {g} must divide input channels {in_channels} and out_channels {n}"
            )
        return g


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


def _expect_mapping(value, what):
    if not isinstance(value, dict):
        raise ModelSyntaxError(f"{what} must be a mapping, got {type(value).__name__}")
    return value


def _positive_int(value, what, minimum=1):
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ModelSyntaxError(f"{what} must be an integer >= {minimum}, got {reprlib.repr(value)}")
    return value


def _parse_input_shape(doc) -> TensorShape:
    raw = _expect_mapping(doc.get("input"), "top-level `input`")
    extra = set(raw) - {"channels", "h", "w"}
    if extra:
        raise ModelSyntaxError(f"unknown input fields: {sorted(extra)}")
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
    if kind not in LAYER_KINDS:  # no schema to map; ModelGraph names the kind
        return LayerSpec(name=name, kind=kind, inputs=tuple(inputs))

    schema = _PARAM_SCHEMA[kind]
    known = {"name", "kind", "inputs", "in_place"} | set(schema)
    extra = set(raw) - known
    if extra:
        raise ModelSyntaxError(f"layer {name!r}: unknown fields for kind {kind}: {sorted(extra)}")

    params = {}
    for key, (required, default, minimum) in schema.items():
        if key in raw:
            params[key] = _positive_int(raw[key], f"layer {name!r}: {key}", minimum)
        elif required:
            raise ModelSyntaxError(f"layer {name!r}: kind {kind} requires `{key}`")
        else:
            params[key] = default

    in_place = raw.get("in_place")
    if in_place is not None:
        if kind not in IN_PLACE_KINDS:
            raise ModelSyntaxError(f"layer {name!r}: in_place only applies to relu/batchnorm")
        if not isinstance(in_place, bool):
            raise ModelSyntaxError(f"layer {name!r}: in_place must be a boolean")
    else:
        in_place = kind in IN_PLACE_KINDS

    return LayerSpec(name=name, kind=kind, inputs=tuple(inputs), params=params, in_place=in_place)


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
        raise ModelSyntaxError(f"unknown top-level fields: {sorted(extra)}")
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

    Refuses an unknown kind, a repeated name, other than exactly one
    input layer, a wrong number of inputs, an input naming no layer, and
    a cycle. Ties are broken by declaration order, which keeps every
    report and golden file deterministic.
    """
    layers = graph.layers
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
        costs[spec.name] = layer_cost(spec, ins, out)
    return replace(graph, shapes=shapes, costs=costs)
