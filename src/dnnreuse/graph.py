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
parameters, the in-place flag, names and edges (see topo_order), then
fills every layer's output shape and cost (see infer_shapes). Shape
inference makes the checks that need shapes (a kernel larger than its
padded input, groups that do not divide both channel counts, add and
concat operands that disagree) and hands each checked shape to
layercost.layer_cost.

dnnreuse.document loads the text; its docstring covers JSON, YAML and
`1e3`, the one number form they read differently. Every integer field
refuses both readings, so the form matters only as a name.
"""

from __future__ import annotations

import heapq
import reprlib
from dataclasses import dataclass, field

from . import layercost
from .document import load_document
from .errors import _FLOAT_MAX, InputError, integer, sorted_keys


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
_LAYER_FIELDS = frozenset(("name", "kind", "inputs", "in_place"))  # the document fields that are not parameters
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
LAYER_KINDS = tuple(_PARAM_SCHEMA)
_FIELDS = {kind: _LAYER_FIELDS.union(schema) for kind, schema in _PARAM_SCHEMA.items()}  # every field a kind's layer may carry
_NO_PARAMS = object()  # LayerSpec's `params` default, told apart from an explicit None


@dataclass(frozen=True)
class TensorShape:
    """Channels x height x width extent of one feature-map tensor.

    The constructor fills the instance's fields in one step, then refuses,
    for every caller, any dimension that is not an int >= 1 (a bool
    included): three exact ints of at least 1 pass one chained test, and
    anything else takes the per-dimension check, whose ShapeError names
    the whole shape.
    """

    channels: int
    height: int
    width: int

    def __init__(self, channels: int, height: int, width: int):
        self.__dict__.update(channels=channels, height=height, width=width)
        if not (type(channels) is int and type(height) is int and type(width) is int and channels >= 1 and height >= 1 and width >= 1):
            for dim in (channels, height, width):
                if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
                    raise ShapeError(f"tensor dimensions must be integers >= 1, got {self!r}")

    def element_count(self) -> int:
        return self.channels * self.height * self.width


@dataclass(frozen=True)
class LayerSpec:
    """One node of the layer graph; `params` holds every parameter of its kind.

    `in_place` (relu and batchnorm only) means the layer writes into its
    producer's storage and produces no tensor of its own.

    `params` must not change once a ModelGraph holds the spec: the graph
    computes its `shapes` and `costs` from it once, at construction, and
    never reads it again, so a changed dict would leave both stale. To
    change a parameter, build a new spec and a new graph.

    The constructor stores its arguments as they are, in one step, and
    checks none of them: the graph does (see topo_order). An omitted
    `params` is a new empty dict; `params=None` is stored as given, and
    the graph refuses it as it refuses any other non-mapping.
    """

    name: str
    kind: str
    inputs: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)
    in_place: bool = False

    def __init__(self, name: str, kind: str, inputs: tuple[str, ...] = (), params: dict = _NO_PARAMS, in_place: bool = False):
        if params is _NO_PARAMS:
            params = {}
        self.__dict__.update(name=name, kind=kind, inputs=inputs, params=params, in_place=in_place)


@dataclass(frozen=True)
class ModelGraph:
    """Layers in execution order plus the network input shape.

    The constructor refuses a name that is not a non-empty string, reads
    `layers` (any iterable of LayerSpec) once, checks the layers, whether
    parsed or built by hand (see topo_order), and stores them in execution
    order: producers precede consumers, ties kept in the given order. Every
    pass walks `layers`. It then fills `shapes` (name to output TensorShape)
    and `costs` (name to LayerCost) through infer_shapes; neither can be
    passed in or replace()d, so both always match the layers and input.
    """

    name: str
    input_shape: TensorShape
    layers: tuple[LayerSpec, ...]
    shapes: dict = field(init=False)
    costs: dict = field(init=False)

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ModelSyntaxError(f"name must be a non-empty string, got {reprlib.repr(self.name)}")
        if not isinstance(self.input_shape, TensorShape):
            raise ShapeError(f"input_shape must be a TensorShape, got {type(self.input_shape).__name__}")
        try:
            iter(self.layers)
        except TypeError:
            raise ModelSyntaxError(f"layers must be an iterable of LayerSpec, got {type(self.layers).__name__}") from None
        object.__setattr__(self, "layers", tuple(topo_order(tuple(self.layers))))  # a generator is read once
        shapes, costs = infer_shapes(self.layers, self.input_shape)
        object.__setattr__(self, "shapes", shapes)
        object.__setattr__(self, "costs", costs)


def _expect_mapping(value, what):
    if not isinstance(value, dict):
        raise ModelSyntaxError(f"{what} must be a mapping, got {type(value).__name__}")
    return value


def _parse_input_shape(doc) -> TensorShape:
    raw = _expect_mapping(doc.get("input"), "top-level `input`")
    extra = set(raw) - {"channels", "h", "w"}
    if extra:
        raise ModelSyntaxError(f"unknown input fields: {sorted_keys(extra)}")
    return TensorShape(
        integer(raw.get("channels"), "input.channels", error=ModelSyntaxError),
        integer(raw.get("h"), "input.h", error=ModelSyntaxError),
        integer(raw.get("w"), "input.w", error=ModelSyntaxError),
    )


def _parse_layer(raw, position) -> LayerSpec:
    if not isinstance(raw, dict):
        _expect_mapping(raw, f"layers[{position}]")
    kind = raw.get("kind")
    inputs = raw.get("inputs", ())
    if isinstance(inputs, list):  # anything else is the graph's to refuse
        inputs = tuple(inputs)
    try:
        schema, fields = _PARAM_SCHEMA[kind], _FIELDS[kind]
    except (KeyError, TypeError):  # a kind may be any value, even unhashable
        schema, fields = {}, _LAYER_FIELDS
    params = {key: raw.get(key, default) for key, (default, _) in schema.items() if key in raw or default is not None}
    if not raw.keys() <= fields:  # fields the graph refuses
        params.update({key: value for key, value in raw.items() if key not in params and key not in _LAYER_FIELDS})
    in_place = raw.get("in_place")
    if in_place is None:  # absent or null: the kind's default
        in_place = kind in IN_PLACE_KINDS
    return LayerSpec(raw.get("name"), kind, inputs, params, in_place)


def _check_fields(spec: LayerSpec, position: int) -> None:
    """Refuse a non-LayerSpec, a name or inputs that are not strings, parameters outside a known kind's schema,
    and a misplaced in_place."""
    if not isinstance(spec, LayerSpec):
        raise ModelSyntaxError(f"layers[{position}] must be a LayerSpec, got {type(spec).__name__}")
    name, kind, params = spec.name, spec.kind, spec.params
    if not isinstance(name, str) or not name:
        raise ModelSyntaxError(f"layers[{position}] needs a non-empty string `name`")
    # str.__instancecheck__(ref) is isinstance(ref, str), called from C for each ref
    if not isinstance(spec.inputs, (tuple, list)) or not all(map(str.__instancecheck__, spec.inputs)):
        raise ModelSyntaxError(f"layer {name!r}: `inputs` must be a list of layer names")
    try:
        schema = _PARAM_SCHEMA[kind]
    except (KeyError, TypeError):  # a kind may be any value, even unhashable
        return  # topo_order names the kind
    # Accept path: a dict as large as the schema that holds every schema key holds no other key, and an exact
    # int within [minimum, _FLOAT_MAX] is what errors.integer accepts. Anything else takes the checks below, in order.
    accepted = type(params) is dict and len(params) == len(schema)
    for key, (_, minimum) in schema.items() if accepted else ():
        value = params.get(key)
        if type(value) is not int or not minimum <= value <= _FLOAT_MAX:
            accepted = False
            break
    if not accepted:
        where = f"layer {name!r}: "
        extra = _expect_mapping(params, where + "params").keys() - schema.keys()
        if extra:
            raise ModelSyntaxError(f"{where}unknown fields for kind {kind}: {sorted_keys(extra)}")
        for key, (_, minimum) in schema.items():
            if key not in params:
                raise ModelSyntaxError(f"{where}kind {kind} requires `{key}`")
            integer(params[key], where + key, minimum, ModelSyntaxError)
    if spec.in_place is not False and kind not in IN_PLACE_KINDS:
        raise ModelSyntaxError(f"layer {name!r}: in_place only applies to relu/batchnorm")
    if not isinstance(spec.in_place, bool):
        raise ModelSyntaxError(f"layer {name!r}: in_place must be a boolean")


# Length of the `inputs` list per kind as (min, max); every kind not listed takes exactly one.
_ARITY = {"input": (0, 0), "add": (2, None), "concat": (2, None)}


def parse_model(text: str, name: str | None = None) -> ModelGraph:
    """Map a model document to a graph, which checks, shapes and costs itself.

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


def topo_order(layers) -> list[LayerSpec]:
    """`layers`, a sequence walked several times, ordered so producers precede consumers, after checking them.

    Refuses, each over all layers in turn: a layer that is not a LayerSpec,
    a name or inputs that are not strings and fields a layer's kind does
    not allow (_check_fields), an unknown kind, a repeated name, other than
    exactly one input layer, a wrong number of inputs, an input naming no
    layer, and a cycle. Ties are broken by declaration order, which keeps
    every report and golden file deterministic: a listing in which every
    input comes before its consumer comes back unchanged.
    """
    for i, spec in enumerate(layers):
        _check_fields(spec, i)
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

    producers_first = True
    for i, spec in enumerate(layers):
        lo, hi = _ARITY.get(spec.kind, (1, 1))
        count = len(spec.inputs)
        if count < lo or (hi is not None and count > hi):
            want = f"exactly {lo}" if lo == hi else f"at least {lo}"
            raise ModelSyntaxError(f"layer {spec.name!r}: kind {spec.kind} takes {want} input(s), got {count}")
        for ref in spec.inputs:
            j = position.get(ref)
            if j is None:
                raise DanglingInputError(f"layer {spec.name!r}: input {ref!r} does not exist")
            if j >= i:
                producers_first = False
    # Kahn's algorithm below always pops the ready layer listed first. When every input is listed before its
    # consumer, the layer after those placed is always ready and listed first of the rest, so it pops the
    # listing order itself.
    if producers_first:
        return list(layers)

    indegree = [len(spec.inputs) for spec in layers]
    consumers: list[list[int]] = [[] for _ in layers]
    for i, spec in enumerate(layers):
        for ref in spec.inputs:
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


def infer_shapes(layers, input_shape: TensorShape) -> tuple[dict, dict]:
    """(shapes, costs): each layer's output TensorShape and LayerCost by name; `layers` as ModelGraph stores them."""
    shapes: dict[str, TensorShape] = {}
    costs = {}
    shape_of = shapes.__getitem__
    for spec in layers:
        ins = [*map(shape_of, spec.inputs)]
        kind = spec.kind
        if kind == "relu" or kind == "batchnorm":  # the commonest kinds first
            out = ins[0]
        elif kind == "input":
            out = input_shape
        elif kind == "conv":
            out = _conv_like_shape(spec, ins[0], spec.params["out_channels"])
            m, n, g = ins[0].channels, out.channels, spec.params["groups"]
            if m % g or n % g:
                raise ShapeError(f"layer {spec.name!r}: groups {g} must divide input channels {m} and out_channels {n}")
        elif kind == "pool":
            out = _conv_like_shape(spec, ins[0], ins[0].channels)
        elif kind == "fc":
            out = TensorShape(spec.params["out_features"], 1, 1)
        elif kind == "add":
            if any(s != ins[0] for s in ins[1:]):
                raise ShapeError(f"layer {spec.name!r}: add operands disagree: {[tuple((s.channels, s.height, s.width)) for s in ins]}")
            out = ins[0]
        else:  # concat
            if any((s.height, s.width) != (ins[0].height, ins[0].width) for s in ins[1:]):
                raise ShapeError(f"layer {spec.name!r}: concat operands disagree on spatial dims")
            out = TensorShape(sum(s.channels for s in ins), ins[0].height, ins[0].width)
        shapes[spec.name] = out
        costs[spec.name] = cost = layercost.layer_cost(spec, ins, out)
        # refused here, so every command refuses it alike
        if cost.macs > _FLOAT_MAX or cost.weights > _FLOAT_MAX or cost.activations > _FLOAT_MAX:
            what, count = max(vars(cost).items(), key=lambda item: item[1])
            raise ShapeError(f"layer {spec.name!r}: {what} must be within float range, got {reprlib.repr(count)}")
    return shapes, costs
