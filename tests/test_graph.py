"""Parsing, validation, shape inference, and topological ordering."""

from __future__ import annotations

import enum
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st
from yaml.events import ScalarEvent

from dnnreuse import document
from dnnreuse.graph import (
    CycleError,
    DanglingInputError,
    DuplicateNameError,
    LayerSpec,
    ModelError,
    ModelGraph,
    ModelSyntaxError,
    ShapeError,
    TensorShape,
    UnknownKindError,
    infer_shapes,
    parse_model,
    topo_order,
)
from dnnreuse.layercost import LayerCost
from dnnreuse.netprofile import NetworkProfile, aggregate, batch_scale, load_profiles
from dnnreuse.roofline import HardwareSpec, roofline_points
from oracles import longhand_layer_costs, longhand_topo_order

SMALLEST = """
input: {channels: 3, h: 224, w: 224}
layers:
  - {name: data, kind: input}
  - {name: conv1, kind: conv, inputs: [data], out_channels: 64, kernel_h: 3, kernel_w: 3, pad_h: 1, pad_w: 1}
  - {name: relu1, kind: relu, inputs: [conv1]}
"""


DATA = LayerSpec("data", "input")
CONV1 = LayerSpec(
    "conv1",
    "conv",
    ("data",),
    {"out_channels": 64, "kernel_h": 3, "kernel_w": 3, "stride_h": 1, "stride_w": 1, "pad_h": 1, "pad_w": 1, "groups": 1},
)
RELU1 = LayerSpec("relu1", "relu", ("conv1",), in_place=True)


def layer(graph: ModelGraph, name: str) -> LayerSpec:
    return next(spec for spec in graph.layers if spec.name == name)


def edges(graph: ModelGraph):
    return [(ref, spec.name) for spec in graph.layers for ref in spec.inputs]


def rejected_both_ways(text, layers, error, match):
    """The document and the same graph built by hand fail alike: one class, one message."""
    with pytest.raises(error, match=match) as parsed:
        parse_model(text)
    with pytest.raises(error, match=match) as built:
        ModelGraph(name="hand", input_shape=TensorShape(3, 8, 8), layers=layers)
    assert (type(built.value), str(built.value)) == (type(parsed.value), str(parsed.value))


class TestParse:
    def test_smallest_valid_pipeline(self):
        g = parse_model(SMALLEST)
        assert [l.name for l in g.layers] == ["data", "conv1", "relu1"]
        assert len(edges(g)) == 2
        assert g.input_shape == TensorShape(3, 224, 224)

    def test_defaults_are_materialized(self):
        g = parse_model(SMALLEST)
        conv = layer(g, "conv1")
        assert conv.params["stride_h"] == 1
        assert conv.params["groups"] == 1
        # relu defaults to in-place unless the document says otherwise
        assert layer(g, "relu1").in_place is True

    def test_explicit_in_place_false(self):
        text = SMALLEST.replace("kind: relu, inputs: [conv1]", "kind: relu, inputs: [conv1], in_place: false")
        assert layer(parse_model(text), "relu1").in_place is False

    def test_unknown_kind_rejected(self):
        text = SMALLEST.replace("kind: relu", "kind: deconv")
        rejected_both_ways(text, (DATA, CONV1, LayerSpec("relu1", "deconv", ("conv1",))), UnknownKindError, "deconv")

    def test_cycle_rejected(self):
        text = """
input: {channels: 1, h: 8, w: 8}
layers:
  - {name: data, kind: input}
  - {name: a, kind: relu, inputs: [b]}
  - {name: b, kind: relu, inputs: [a]}
"""
        with pytest.raises(CycleError):
            parse_model(text)

    def test_duplicate_name_rejected(self):
        text = SMALLEST.replace("name: relu1", "name: conv1")
        rejected_both_ways(text, (DATA, CONV1, LayerSpec("conv1", "relu", ("conv1",))), DuplicateNameError, "conv1")

    def test_dangling_input_rejected(self):
        text = SMALLEST.replace("inputs: [conv1]", "inputs: [ghost]")
        rejected_both_ways(text, (DATA, CONV1, LayerSpec("relu1", "relu", ("ghost",))), DanglingInputError, "ghost")

    def test_syntax_error_reports_position(self):
        with pytest.raises(ModelSyntaxError, match=r"line \d+"):
            parse_model("input: {channels: 3, h: 224, w: 224}\nlayers: [\n  {name: a, kind: input,\n")

    def test_missing_required_param(self):
        text = SMALLEST.replace("out_channels: 64, ", "")
        params = {k: v for k, v in CONV1.params.items() if k != "out_channels"}
        conv = LayerSpec("conv1", "conv", ("data",), params)
        rejected_both_ways(text, (DATA, conv, RELU1), ModelSyntaxError, "requires `out_channels`")

    def test_zero_stride_rejected(self):
        text = SMALLEST.replace("pad_h: 1", "stride_h: 0, pad_h: 1")
        conv = LayerSpec("conv1", "conv", ("data",), {**CONV1.params, "stride_h": 0})
        rejected_both_ways(text, (DATA, conv, RELU1), ModelSyntaxError, "stride_h must be an integer >= 1, got 0")

    def test_unknown_field_rejected(self):
        text = SMALLEST.replace("pad_h: 1", "dilation: 2, pad_h: 1")
        conv = LayerSpec("conv1", "conv", ("data",), {**CONV1.params, "dilation": 2})
        rejected_both_ways(text, (DATA, conv, RELU1), ModelSyntaxError, r"unknown fields for kind conv: \['dilation'\]")

    def test_in_place_restricted_to_elementwise_kinds(self):
        text = SMALLEST.replace("out_channels: 64", "in_place: true, out_channels: 64")
        conv = LayerSpec("conv1", "conv", ("data",), CONV1.params, in_place=True)
        rejected_both_ways(text, (DATA, conv, RELU1), ModelSyntaxError, "in_place only applies to relu/batchnorm")

    def test_in_place_must_be_boolean(self):
        text = SMALLEST.replace("inputs: [conv1]", "inputs: [conv1], in_place: 'yes'")
        relu = LayerSpec("relu1", "relu", ("conv1",), in_place="yes")
        rejected_both_ways(text, (DATA, CONV1, relu), ModelSyntaxError, "in_place must be a boolean")

    def test_exactly_one_input_node(self):
        text = """
input: {channels: 1, h: 4, w: 4}
layers:
  - {name: a, kind: input}
  - {name: b, kind: input}
"""
        rejected_both_ways(text, (LayerSpec("a", "input"), LayerSpec("b", "input")), ModelSyntaxError, "input")

    def test_json_document_accepted(self):
        text = (
            '{"input": {"channels": 1, "h": 4, "w": 4},'
            ' "layers": [{"name": "d", "kind": "input"},'
            ' {"name": "r", "kind": "relu", "inputs": ["d"]}]}'
        )
        assert [l.name for l in parse_model(text).layers] == ["d", "r"]


# Each graph is the input layer d plus one faulty layer:
# (its document entry, the same layer built by hand, error, message fragment).
DEFECTS = [
    pytest.param(
        "{name: r, kind: relu, inputs: [ghost]}", LayerSpec("r", "relu", ("ghost",)),
        DanglingInputError, "input 'ghost' does not exist", id="dangling-input",
    ),
    pytest.param(
        "{name: d, kind: relu, inputs: [d]}", LayerSpec("d", "relu", ("d",)),
        DuplicateNameError, "duplicate layer name 'd'", id="duplicate-name",
    ),
    pytest.param(
        "{name: r, kind: relu}", LayerSpec("r", "relu"),
        ModelSyntaxError, "kind relu takes exactly 1 input", id="relu-without-input",
    ),
    pytest.param(
        "{name: e, kind: input}", LayerSpec("e", "input"),
        ModelSyntaxError, "exactly one kind=input layer required, found 2", id="second-input-layer",
    ),
    pytest.param(
        "{name: a, kind: add, inputs: [d]}", LayerSpec("a", "add", ("d",)),
        ModelSyntaxError, "kind add takes at least 2 input", id="add-of-one",
    ),
    pytest.param(
        "{name: b, kind: bogus, inputs: [d]}", LayerSpec("b", "bogus", ("d",)),
        UnknownKindError, "unknown kind 'bogus'", id="unknown-kind",
    ),
    pytest.param(
        "{name: c, kind: conv, inputs: [d, d], out_channels: 64, kernel_h: 3, kernel_w: 3, pad_h: 1, pad_w: 1}",
        LayerSpec("c", "conv", ("d", "d"), CONV1.params),
        ModelSyntaxError, "kind conv takes exactly 1 input", id="conv-of-two",
    ),
    pytest.param(
        "{name: 5, kind: relu, inputs: [d]}", LayerSpec(5, "relu", ("d",)),
        ModelSyntaxError, r"layers\[1\] needs a non-empty string `name`", id="int-name",
    ),
    pytest.param(
        "{name: r, kind: relu, inputs: d}", LayerSpec("r", "relu", "d"),
        ModelSyntaxError, "layer 'r': `inputs` must be a list of layer names", id="inputs-a-string",
    ),
]


@pytest.mark.parametrize("entry, spec, error, match", DEFECTS)
def test_hand_built_graph_is_checked_like_a_parsed_one(entry, spec, error, match):
    text = f"input: {{channels: 3, h: 8, w: 8}}\nlayers:\n  - {{name: d, kind: input}}\n  - {entry}\n"
    rejected_both_ways(text, (LayerSpec("d", "input"), spec), error, match)


@pytest.mark.parametrize(
    "input_shape, spec, error, match",
    [
        ((3, 8, 8), LayerSpec("r", "relu", ("d",)), ShapeError, "^input_shape must be a TensorShape, got tuple$"),
        (
            TensorShape(3, 8, 8), LayerSpec("c", "conv", ("d",), None),
            ModelSyntaxError, "^layer 'c': params must be a mapping, got NoneType$",
        ),
        (TensorShape(3, 8, 8), "conv1", ModelSyntaxError, r"^layers\[1\] must be a LayerSpec, got str$"),
        (TensorShape(3, 8, 8), {"name": "r"}, ModelSyntaxError, r"^layers\[1\] must be a LayerSpec, got dict$"),
    ],
    ids=["input-shape-a-tuple", "params-none", "layer-a-str", "layer-a-dict"],
)
def test_hand_built_field_of_the_wrong_type_is_a_model_error(input_shape, spec, error, match):
    # no document can carry these, so there is no parsed twin to compare with
    with pytest.raises(error, match=match):
        ModelGraph(name="hand", input_shape=input_shape, layers=(LayerSpec("d", "input"), spec))


@pytest.mark.parametrize(
    "name, layers, match",
    [
        (5, (DATA, CONV1), "^name must be a non-empty string, got 5$"),
        ("", (DATA, CONV1), "^name must be a non-empty string, got ''$"),
        ("hand", None, "^layers must be an iterable of LayerSpec, got NoneType$"),
        ("hand", 3, "^layers must be an iterable of LayerSpec, got int$"),
    ],
    ids=["int-name", "empty-name", "layers-none", "layers-an-int"],
)
def test_hand_built_name_or_layers_of_the_wrong_type_is_a_model_error(name, layers, match):
    # no document reaches these: parse_model refuses a bad name itself and passes a tuple of LayerSpec
    with pytest.raises(ModelSyntaxError, match=match):
        ModelGraph(name=name, input_shape=TensorShape(3, 8, 8), layers=layers)


HEAD = "input: {channels: 3, h: 8, w: 8}\nlayers:\n  - {name: data, kind: input}\n"
CONV_PARAMS = {"stride_h": 1, "stride_w": 1, "pad_h": 0, "pad_w": 0, "groups": 1}  # the defaults parse_model fills in
RANGE = "expected one of input, conv, fc, pool, relu, batchnorm, add, concat"


def conv(**params):
    return LayerSpec("conv1", "conv", ("data",), {**CONV_PARAMS, **params})


# Graphs with two or more faults each: (document, the same layers built by hand, error, the whole first message).
# The message is the one the graph reports first; a check that runs out of turn reports another one.
FIRST_FAULTS = [
    pytest.param(
        HEAD + "  - {name: conv1, kind: conv, inputs: [data], out_channels: 4, kernel_h: 0}\n",
        (DATA, conv(out_channels=4, kernel_h=0)),
        ModelSyntaxError, "layer 'conv1': kernel_h must be an integer >= 1, got 0", id="bad-value-before-later-missing-key",
    ),
    pytest.param(
        # with its defaults filled in, the params hold as many keys as conv's schema, one of them unknown
        HEAD + "  - {name: conv1, kind: conv, inputs: [data], dilation: 2, kernel_h: 3, kernel_w: 3}\n",
        (DATA, conv(dilation=2, kernel_h=3, kernel_w=3)),
        ModelSyntaxError, "layer 'conv1': unknown fields for kind conv: ['dilation']", id="unknown-before-missing",
    ),
    pytest.param(
        HEAD + "  - {name: conv1, kind: conv, inputs: [data], out_channels: 4, kernel_h: 3, kernel_w: 3, pad_h: -1, stride_h: true}\n",
        (DATA, conv(out_channels=4, kernel_h=3, kernel_w=3, pad_h=-1, stride_h=True)),
        ModelSyntaxError, "layer 'conv1': stride_h must be an integer >= 1, got True", id="bool-in-schema-order",
    ),
    pytest.param(
        HEAD + "  - {name: conv1, kind: conv, inputs: [data], out_channels: 4, kernel_h: 3, kernel_w: 3, pad_h: -1, stride_h: 2.0}\n",
        (DATA, conv(out_channels=4, kernel_h=3, kernel_w=3, pad_h=-1, stride_h=2.0)),
        ModelSyntaxError, "layer 'conv1': stride_h must be an integer >= 1, got 2.0", id="float-in-schema-order",
    ),
    pytest.param(
        HEAD + f"  - {{name: conv1, kind: conv, inputs: [data], in_place: true, out_channels: 4, kernel_h: 3, kernel_w: 3, stride_h: {10**400}}}\n",
        (DATA, replace(conv(out_channels=4, kernel_h=3, kernel_w=3, stride_h=10**400), in_place=True)),
        ModelSyntaxError, "layer 'conv1': stride_h must be within float range, got 100000000000000000...0000000000000000000",
        id="beyond-float-range-before-in-place",
    ),
    pytest.param(
        HEAD + "  - {name: conv1, kind: conv, inputs: [data], in_place: true, out_channels: 4, kernel_h: 3, kernel_w: 3, groups: 0}\n",
        (DATA, replace(conv(out_channels=4, kernel_h=3, kernel_w=3, groups=0), in_place=True)),
        ModelSyntaxError, "layer 'conv1': groups must be an integer >= 1, got 0", id="bad-value-before-in-place",
    ),
    pytest.param(
        HEAD + "  - {name: conv1, kind: [conv], inputs: [data], out_channels: 4}\n  - {name: relu1, kind: relu, inputs: [ghost]}\n",
        (DATA, LayerSpec("conv1", ["conv"], ("data",), {"out_channels": 4}), LayerSpec("relu1", "relu", ("ghost",))),
        UnknownKindError, f"layer 'conv1': unknown kind ['conv'] ({RANGE})", id="unhashable-kind-before-dangling",
    ),
    pytest.param(
        HEAD + "  - {name: a, kind: relu, inputs: [b]}\n  - {name: b, kind: relu, inputs: [a]}\n  - {name: c, kind: relu, inputs: [ghost]}\n",
        (DATA, LayerSpec("a", "relu", ("b",)), LayerSpec("b", "relu", ("a",)), LayerSpec("c", "relu", ("ghost",))),
        DanglingInputError, "layer 'c': input 'ghost' does not exist", id="dangling-after-cycle",
    ),
    pytest.param(
        HEAD + "  - {name: c, kind: relu, inputs: [ghost]}\n  - {name: a, kind: relu, inputs: [b]}\n  - {name: b, kind: relu, inputs: [a]}\n",
        (DATA, LayerSpec("c", "relu", ("ghost",)), LayerSpec("a", "relu", ("b",)), LayerSpec("b", "relu", ("a",))),
        DanglingInputError, "layer 'c': input 'ghost' does not exist", id="dangling-before-cycle",
    ),
]


class TestFaultPrecedence:
    """Which fault a graph with several reports first, parsed or built by hand: the class and the whole message."""

    @staticmethod
    def first_fault(build):
        with pytest.raises(ModelError) as caught:
            build()
        return type(caught.value), str(caught.value)

    @pytest.mark.parametrize("text, layers, error, message", FIRST_FAULTS)
    def test_first_fault_both_ways(self, text, layers, error, message):
        assert self.first_fault(lambda: parse_model(text)) == (error, message)
        assert self.first_fault(lambda: ModelGraph("hand", TensorShape(3, 8, 8), layers)) == (error, message)

    @pytest.mark.parametrize(
        "layers, message",
        [
            ((DATA, LayerSpec("c", "conv", ("data",), None, in_place=True)), "layer 'c': params must be a mapping, got NoneType"),
            ((DATA, LayerSpec("c", "relu", ("data",), [], in_place="x")), "layer 'c': params must be a mapping, got list"),
            ((DATA, 3, conv(kernel_h=0)), "layers[1] must be a LayerSpec, got int"),
            ((LayerSpec("data", "input", (), {"foo": 1}), 3), "layer 'data': unknown fields for kind input: ['foo']"),
            ((DATA, LayerSpec(5, "bogus", ("ghost",))), "layers[1] needs a non-empty string `name`"),
        ],
        ids=["params-none-and-in-place", "params-a-list-and-in-place-a-str", "int-layer-first", "int-layer-second", "int-name-and-bad-kind"],
    )
    def test_first_fault_built_by_hand(self, layers, message):
        # no document carries these layers as they stand
        assert self.first_fault(lambda: ModelGraph("hand", TensorShape(3, 8, 8), layers)) == (ModelSyntaxError, message)

    def test_layer_that_is_a_number_is_refused_while_parsing(self):
        # parse_model refuses layers[1] before the graph checks layers[0]'s unknown field
        text = "input: {channels: 3, h: 8, w: 8}\nlayers:\n  - {name: data, kind: input, foo: 1}\n  - 3\n"
        assert self.first_fault(lambda: parse_model(text)) == (ModelSyntaxError, "layers[1] must be a mapping, got int")

    def test_int_enum_parameter_is_accepted_and_kept(self):
        class Size(enum.IntEnum):
            THREE = 3

        g = ModelGraph("hand", TensorShape(3, 8, 8), (DATA, conv(out_channels=4, kernel_h=Size.THREE, kernel_w=3)))
        assert layer(g, "conv1").params["kernel_h"] is Size.THREE
        assert g.costs["conv1"] == LayerCost(macs=4 * 3 * 3 * 3 * 6 * 6, weights=4 * 3 * 3 * 3, activations=3 * 64 + 4 * 36)


def test_hand_built_layers_may_be_a_generator():
    # read once, in any order, it builds the same graph as a tuple
    built = ModelGraph(name="hand", input_shape=TensorShape(3, 8, 8), layers=(DATA, CONV1, RELU1))
    assert ModelGraph(name="hand", input_shape=TensorShape(3, 8, 8), layers=(s for s in (RELU1, CONV1, DATA))) == built


@pytest.fixture(params=["libyaml", "python"])
def yaml_loader(request, monkeypatch):
    """Run a test under libyaml and again under the pure-Python loader."""
    if request.param == "libyaml" and not yaml.__with_libyaml__:
        pytest.skip("PyYAML built without libyaml")
    if request.param == "python":
        monkeypatch.setattr(document, "_LOADER", document._PythonLoader)
    return request.param


def nested(depth: int) -> list[str]:
    """One document per nesting form, each `depth` nodes deep, the innermost scalar included."""
    d = depth - 1
    return [
        "[" * depth + "]" * depth,  # flow sequences
        "{a: " * d + "1" + "}" * d,  # flow mappings
        "- " * d + "x",  # block sequences, one line
        '{"a": ' * d + "1" + "}" * d,  # JSON
    ]


class TestLoader:
    def test_libyaml_is_used_when_present(self):
        if not yaml.__with_libyaml__:
            pytest.skip("PyYAML built without libyaml")
        assert issubclass(document._LOADER, yaml.CSafeLoader)

    # (text, line, column); both loaders put each problem at the same place
    MALFORMED = [
        ("input: {channels: 3, h: 224, w: 224}\nlayers: [\n  {name: a, kind: input,\n", 4, 1),
        ("input: [1, 2\nlayers: 3", 2, 7),
        ("layers:\n  - a\n b: c", 3, 2),
        ("name: 'unterminated", 1, 20),
        ("name: value: other", 1, 12),
        ("{name: x, input: ]}", 1, 18),  # flow YAML: JSON refuses it, YAML reports it
        ('{"name": "x",\n "input": {"channels": 1 "h": 2}}', 2, 29),  # malformed JSON
    ]

    @pytest.mark.parametrize("text, line, column", MALFORMED)
    def test_syntax_error_position(self, yaml_loader, text, line, column):
        with pytest.raises(ModelSyntaxError, match=rf"^syntax error at line {line}, column {column}: "):
            parse_model(text)

    def test_flow_yaml_starting_with_brace_falls_back_to_yaml(self, yaml_loader):
        text = "{name: flow, input: {channels: 1, h: 4, w: 4}, layers: [{name: d, kind: input}, {name: r, kind: relu, inputs: [d]}]}"
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)
        g = parse_model(text)
        assert g.name == "flow" and [l.name for l in g.layers] == ["d", "r"]

    def test_every_fixture_reads_the_same_as_json(self, model_dir):
        # yaml.safe_load is the pure-Python reference reader, independent of document._LOADER
        for path in sorted(model_dir.glob("*.yaml")):
            text = path.read_text()
            as_json = json.dumps(yaml.safe_load(text))
            assert as_json.startswith("{")
            assert parse_model(text) == parse_model(as_json), path.name

    def test_exponent_without_dot_is_a_string_in_yaml_and_a_float_in_json(self):
        # YAML 1.1 takes a float only with a dot and a signed exponent
        yaml_doc = SMALLEST.replace("{name: data, kind: input}", "{name: 1e3, kind: input}").replace("[data]", "[1e3]")
        assert parse_model(yaml_doc).layers[0].name == "1e3"
        json_doc = json.dumps(yaml.safe_load(yaml_doc)).replace('"1e3"', "1e3")
        with pytest.raises(ModelSyntaxError, match="name"):
            parse_model(json_doc)

    @pytest.mark.parametrize("value", ["1e3", "1.0e+3"])
    def test_integer_fields_refuse_exponent_numbers_either_way(self, value):
        yaml_doc = SMALLEST.replace("out_channels: 64", f"out_channels: {value}")
        json_doc = json.dumps(yaml.safe_load(SMALLEST)).replace('"out_channels": 64', f'"out_channels": {value}')
        for text in (yaml_doc, json_doc):
            with pytest.raises(ModelSyntaxError, match="out_channels must be an integer"):
                parse_model(text)

    @pytest.mark.parametrize("form", range(4))
    def test_deep_nesting_is_a_syntax_error(self, yaml_loader, form):
        # the pure-Python composer and json.loads overflow the interpreter stack here
        with pytest.raises(ModelSyntaxError, match="nests too deeply"):
            parse_model(nested(2000)[form])

    @pytest.mark.parametrize("form", range(3))
    def test_nesting_limit(self, yaml_loader, form):
        assert document.load_document(nested(document.MAX_DEPTH)[form], ModelSyntaxError)
        with pytest.raises(ModelSyntaxError, match="nests too deeply"):
            document.load_document(nested(document.MAX_DEPTH + 1)[form], ModelSyntaxError)

    def test_nesting_beyond_the_c_stack_exits_2(self, tmp_path):
        # libyaml's composer recurses in C: at this depth it overflows the stack and kills the
        # process with SIGSEGV unless the loader stops first, so the run is kept out of this one
        path = tmp_path / "deep.yaml"
        path.write_text("- " * 100_000 + "x")
        src = pathlib.Path(document.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run(
            [sys.executable, "-m", "dnnreuse.cli", "analyze", str(path)], capture_output=True, text=True, env=env
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: ") and "nests too deeply" in result.stderr


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(),
    st.text(max_size=6),
    # texts that YAML 1.1 types, or that read as syntax when unquoted
    st.sampled_from(["", "~", "yes", "0x1F", "0o17", "1_000", "1:20", "2001-12-14", "1e3", "1.0e+3", ".NaN", "<<", "=", "!", "&a", "- x", "a: b"]),
)
KEYS = st.one_of(st.text(max_size=6), st.integers(), st.booleans(), st.none(), st.floats(allow_nan=False))
TREES = st.recursive(
    SCALARS, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(KEYS, kids, max_size=4), max_leaves=20
)
# lines PyYAML reads in its own way, or refuses: each is built by yaml.load, never by the builder
SPLICES = [
    "k: &a [1, {b: 2}]", "j: *a", "- *a", "- &a x", "<<: {m: 1}", "<<: [{m: 1}, {n: 2}]", "=: v", "v: =", "- <<",
    "t: !!str 12", "t: !!int '7'", "t: !!float 3", "t: !!binary aGk=", "t: !!timestamp 2001-12-14", "t: ! 12",
    "t: !!null x", "t: !!map {a: 1}", "t: !!seq [1]", "t: !!set {a, b}", "t: !!omap [{a: 1}]", "t: !custom x",
    "t: !!int abc", "t: !!int ''", "t: !!bool maybe", "t: !!float x", "t: 2001-13-45", "t: !!str [1]",
    "t: !!map x", "t: !!seq x", "t: !!set x", "t: !!omap x", "t: !!pairs x", "t: !!set {a: 1}", "t: !!omap [{a: 1}]",
    "? [1, 2]\n: v", "? {a: 1}\n: v", "---", "--- x", "...", "x", "- ", "",
]


@st.composite
def documents(draw):
    """A dumped mapping with up to three SPLICES lines, or `[` nests about MAX_DEPTH deep, put in.

    A line goes between two top-level keys, where it is one more entry of
    a block mapping, or anywhere, indented as the line it goes before.
    """
    data = draw(TREES)
    root = {"x": data, "y": data} if draw(st.booleans()) else {"x": data}  # shared: an anchor and an alias
    lines = yaml.safe_dump(root, default_flow_style=draw(st.sampled_from([False, True, None])), sort_keys=False).splitlines()
    entries = [i for i, line in enumerate(lines) if line[:1] not in (" ", "-", "{", "[")] + [len(lines)]
    depth = st.integers(document.MAX_DEPTH - 6, document.MAX_DEPTH + 2).map(lambda n: "d: " + "[" * n + "]" * n)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.sampled_from(entries) | st.integers(0, len(lines)))
        indent = lines[at][: len(lines[at]) - len(lines[at].lstrip())] if at < len(lines) else ""
        lines.insert(at, indent + draw(st.sampled_from(SPLICES) | depth))
        entries = [i + (i >= at) for i in entries]
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from(["", "# no document\n"]))
    return "\n".join(lines) + "\n"


@st.composite
def edited_fixtures(draw):
    """A bundled document with up to four YAML tokens written over or in between its characters."""
    text = draw(st.sampled_from(["alexnet.yaml", "nin.yaml"]))
    text = (pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "models" / text).read_text()
    tokens = st.sampled_from([":", "- ", "[", "]", "{", "}", ",", "&a ", "*a", "!!int ", "<<: ", "\n", " ", "'", "#", "---\n", "? ", "=", "2001-13-45"])
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(tokens) + text[at + draw(st.integers(0, 2)):]
    return text


def outcome(text):
    """What load_document makes of `text`: the repr of its data, or the type and message of its error."""
    try:
        return repr(document.load_document(text, ModelSyntaxError))
    except Exception as exc:  # compared, whatever it is
        return type(exc), str(exc)


def pyyaml_outcome(text, monkeypatch):
    """outcome(text) with every YAML document deferred to yaml.load."""

    def defer(loader):
        raise document._Defer

    with monkeypatch.context() as patch:
        patch.setattr(document, "_build", defer)
        return outcome(text)


def at_depth(node: str, depth: int, form: int, first: str | None = None) -> str:
    """A document whose innermost node, `node`, nests `depth` deep: in flow sequences, flow mappings or block sequences.

    With `first`, the root collection holds that node before the chain down to `node`.
    """
    k = depth - 1 - (first is not None)
    inner = ["[" * k + node + "]" * k, "{a: " * k + node + "}" * k, "- " * k + node][form]
    if first is None:
        return inner
    return [f"[{first}, {inner}]", f"{{b: {first}, a: {inner}}}", f"- {first}\n- {inner}"][form]


# (innermost node, the root's first node): with a first `x`, a plain `x` or `! x` at the limit is a text the
# document has had before; an alias's anchor is the root's first node, at depth 2, and `*b` has none
LIMIT_NODES = [
    (node, first) for node in ["x", "&a x", "!!int 7", "! x", "!!seq []", "[]", "{}"] for first in (None, "x")
] + [("*a", "&a x"), ("*b", None)]


class TestBuilder:
    """The builder returns what yaml.load returns and raises what it raises, under either loader."""

    @pytest.mark.parametrize("form", range(3))
    @pytest.mark.parametrize("node, first", LIMIT_NODES)
    def test_check_order_at_the_nesting_limit(self, yaml_loader, monkeypatch, node, first, form):
        # PyYAML takes an alias before it counts depth, so in a sequence an alias is read, or its missing
        # anchor reported, one level deeper than any other node; in a mapping (form 1) its key is as deep
        deepest = at_depth(node, document.MAX_DEPTH, form, first)
        deeper = at_depth(node, document.MAX_DEPTH + 1, form, first)
        assert outcome(deepest) == pyyaml_outcome(deepest, monkeypatch)
        assert outcome(deeper) == pyyaml_outcome(deeper, monkeypatch)
        assert isinstance(outcome(deepest), str) == (node != "*b")
        assert (outcome(deeper) == (ModelSyntaxError, "document nests too deeply")) == (node[0] != "*" or form == 1)

    @pytest.mark.parametrize("node", ["2001-13-45", "!!int abc", "!!seq []"])
    def test_a_node_too_deep_is_refused_before_it_is_constructed(self, yaml_loader, node):
        # each would go back to yaml.load, whose composer stops at the same node
        loader = document._LOADER(at_depth(node, document.MAX_DEPTH + 1, 0))
        try:
            with pytest.raises(RecursionError):
                document._build(loader)
        finally:
            loader.dispose()

    def test_a_plain_scalar_is_typed_once_per_distinct_text(self, yaml_loader, monkeypatch, model_dir):
        # the module docstring's promise, counted on the loader's resolver over every bundled model
        resolve = document._LOADER.resolve
        calls = []

        def counted(loader, kind, value, implicit):
            calls.append((value, implicit))
            return resolve(loader, kind, value, implicit)

        monkeypatch.setattr(document._LOADER, "resolve", counted)
        for path in sorted(model_dir.glob("*.yaml")):
            text = path.read_text()
            events = yaml.parse(text, Loader=document._LOADER)
            untagged = {(e.value, e.implicit) for e in events if e.__class__ is ScalarEvent and e.tag is None}
            calls.clear()
            document.load_document(text, ModelSyntaxError)
            assert len(calls) == len(untagged), path.name
            assert set(calls) == untagged, path.name

    def test_every_bundled_document_is_built_without_deferring(self, monkeypatch, model_dir, hardware_dir):
        # what defers is the document's content, which both parsers report alike; libyaml is the faster
        paths = sorted(model_dir.glob("*.yaml")) + sorted(hardware_dir.glob("*.yaml"))
        assert len(paths) == 27
        expected = [yaml.load(path.read_text(), Loader=document._LOADER) for path in paths]

        def refuse(*args, **kwargs):
            raise AssertionError("deferred to yaml.load")

        monkeypatch.setattr(yaml, "load", refuse)
        for path, data in zip(paths, expected):
            assert document.load_document(path.read_text(), ModelSyntaxError) == data, path.name

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=documents())
    def test_generated_documents(self, yaml_loader, monkeypatch, text):
        assert outcome(text) == pyyaml_outcome(text, monkeypatch)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=edited_fixtures())
    def test_edited_fixtures(self, yaml_loader, monkeypatch, text):
        assert outcome(text) == pyyaml_outcome(text, monkeypatch)


class TestInferShapes:
    def make(self, body, channels=3, h=224, w=224):
        text = f"input: {{channels: {channels}, h: {h}, w: {w}}}\nlayers:\n  - {{name: data, kind: input}}\n{body}"
        return parse_model(text)

    def test_same_padding_identity(self):
        g = self.make("  - {name: c, kind: conv, inputs: [data], out_channels: 64, kernel_h: 3, kernel_w: 3, pad_h: 1, pad_w: 1}")
        assert g.shapes["c"] == TensorShape(64, 224, 224)

    def test_strided_conv_floor_formula(self):
        # floor((224 + 0 - 11)/4) + 1 = 54, cross-checked by enumerating
        # valid filter placements: positions 0, 4, ..., 212 inclusive.
        placements = len(range(0, 224 - 11 + 1, 4))
        g = self.make("  - {name: c, kind: conv, inputs: [data], out_channels: 96, kernel_h: 11, kernel_w: 11, stride_h: 4, stride_w: 4}")
        assert g.shapes["c"] == TensorShape(96, 54, 54)
        assert g.shapes["c"].height == placements

    def test_pool_floor_formula(self):
        g = self.make(
            "  - {name: c, kind: conv, inputs: [data], out_channels: 96, kernel_h: 11, kernel_w: 11, stride_h: 4, stride_w: 4}\n"
            "  - {name: p, kind: pool, inputs: [c], kernel_h: 3, kernel_w: 3, stride_h: 2, stride_w: 2}"
        )
        assert g.shapes["p"] == TensorShape(96, 26, 26)

    def test_fc_flattens_input(self):
        g = self.make("  - {name: f, kind: fc, inputs: [data], out_features: 10}", channels=4, h=5, w=5)
        assert g.shapes["f"] == TensorShape(10, 1, 1)

    def test_concat_sums_channels(self):
        g = self.make(
            "  - {name: a, kind: conv, inputs: [data], out_channels: 8, kernel_h: 1, kernel_w: 1}\n"
            "  - {name: b, kind: conv, inputs: [data], out_channels: 24, kernel_h: 1, kernel_w: 1}\n"
            "  - {name: cat, kind: concat, inputs: [a, b]}"
        )
        assert g.shapes["cat"].channels == 32

    def test_add_requires_identical_shapes(self):
        with pytest.raises(ShapeError, match="add"):
            self.make(
                "  - {name: a, kind: conv, inputs: [data], out_channels: 8, kernel_h: 1, kernel_w: 1}\n"
                "  - {name: b, kind: conv, inputs: [data], out_channels: 24, kernel_h: 1, kernel_w: 1}\n"
                "  - {name: s, kind: add, inputs: [a, b]}"
            )

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(ShapeError, match="kernel"):
            self.make("  - {name: c, kind: conv, inputs: [data], out_channels: 4, kernel_h: 9, kernel_w: 9}", h=4, w=4)

    def test_groups_must_divide_channels(self):
        with pytest.raises(ShapeError, match="groups"):
            self.make("  - {name: c, kind: conv, inputs: [data], out_channels: 8, kernel_h: 1, kernel_w: 1, groups: 2}")

    def test_inference_is_deterministic(self):
        g = parse_model(SMALLEST)
        assert infer_shapes(g.layers, g.input_shape) == (g.shapes, g.costs)

    def test_bool_dimension_refused(self):
        with pytest.raises(ShapeError, match=r"^tensor dimensions must be integers >= 1, got TensorShape\(channels=True"):
            TensorShape(True, 4, 4)


def field_list_record(record):
    """`record` as its dataclass field list builds it: a bare instance given each field in turn, as a generated __init__ does."""
    twin = object.__new__(type(record))
    for f in fields(record):
        object.__setattr__(twin, f.name, getattr(record, f.name))
    return twin


def hash_or_refusal(record):
    try:
        return hash(record)
    except TypeError as exc:  # a LayerSpec holds its params dict
        return str(exc)


def assert_record_parity(record):
    """`record` has exactly its dataclass fields, in order, and behaves as the record its field list builds."""
    twin = field_list_record(record)
    names = [f.name for f in fields(record)]
    assert list(vars(record)) == names, record
    assert vars(record) == vars(twin) and repr(record) == repr(twin) and record == twin
    assert hash_or_refusal(record) == hash_or_refusal(twin)
    assert replace(record) == twin and vars(replace(record)) == vars(twin)
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)


def assert_graph_records(graph: ModelGraph):
    for record in (graph.input_shape, *graph.layers, *graph.shapes.values(), *graph.costs.values()):
        assert_record_parity(record)


@st.composite
def pointwise_documents(draw):
    """A JSON model document of convs, relus and batchnorms, in place by default, explicitly or materialised, some joined by add."""
    layers = [{"name": "data", "kind": "input"}]
    channels = {"data": 3}  # every layer keeps the 4x4 input extent, so an add needs equal channels alone
    last = "data"
    for i in range(draw(st.integers(1, 16))):
        name = f"l{i}"
        peers = [n for n, c in channels.items() if c == channels[last] and n != last]
        kind = draw(st.sampled_from(["conv", "relu", "batchnorm"] + ["add"] * bool(peers)))
        entry = {"name": name, "kind": kind, "inputs": [last]}
        if kind == "conv":
            k = draw(st.sampled_from([1, 3]))
            entry.update(out_channels=draw(st.sampled_from([channels[last], 2, 5])), kernel_h=k, kernel_w=k, pad_h=k // 2, pad_w=k // 2)
        elif kind == "add":
            entry["inputs"] = [draw(st.sampled_from(peers)), last]
        else:
            in_place = draw(st.sampled_from([None, True, False]))
            if in_place is not None:
                entry["in_place"] = in_place
        channels[name] = entry.get("out_channels", channels[last])
        layers.append(entry)
        last = name
    return json.dumps({"name": "drawn", "input": {"channels": 3, "h": 4, "w": 4}, "layers": layers})


class TestRecordParity:
    """Every record the graph, the profiles and the roofline build behaves as the one its dataclass field list builds."""

    def test_every_fixture_record(self, model_dir):
        paths = sorted(model_dir.glob("*.yaml"))
        assert len(paths) == 25
        for path in paths:
            assert_graph_records(parse_model(path.read_text(), name=path.stem))

    @given(pointwise_documents())
    @settings(max_examples=60, deadline=None)
    def test_drawn_graph_records(self, text):
        graph = parse_model(text)
        assert_graph_records(graph)
        costs = {name: (c.macs, c.weights, c.activations) for name, c in graph.costs.items()}
        assert costs == longhand_layer_costs(text)
        assert all(type(n) is int for counts in costs.values() for n in counts)

    def test_hand_built_records(self):
        for record in (DATA, CONV1, RELU1, LayerSpec(name="k", kind="relu", inputs=("d",), params={}, in_place=True)):
            assert_record_parity(record)
        assert_graph_records(ModelGraph(name="hand", input_shape=TensorShape(3, 8, 8), layers=(DATA, CONV1, RELU1)))

    def test_profile_and_roofline_records(self, fixture_dir, model_dir):
        loaded = [p for p, _ in load_profiles((fixture_dir / "reference_metrics.csv").read_text()).values()]
        counted = [p for p, _ in load_profiles("model,macs,weights,activations\na,100,4,6\nb,7,0,3\nc,0,2,0\n").values()]
        hand = [
            NetworkProfile(10, 2, 3),
            NetworkProfile(1.5, 0.5, 2.0, 7, 1),
            NetworkProfile(macs=6.0, weights=1.0, activations=4.0, peak_concurrent=None, batch=1),
            NetworkProfile.from_reuse(3.0, 4.0),
            aggregate(parse_model((model_dir / "alexnet.yaml").read_text())),
        ]
        scaled = [batch_scale(p, b) for p in hand for b in (1, 4)]
        for profile in (*loaded, *counted, *hand, *scaled):
            assert_record_parity(profile)
        # the one-step constructor still checks the counts, for replace too
        refusals = (
            ({"macs": -1.0}, "profile counts must be non-negative"),
            ({"weights": float("nan")}, "weights must be a finite number, got nan"),
            ({"weights": 0, "activations": 0}, "network has no weights or activations"),
        )
        for changes, message in refusals:
            with pytest.raises(ValueError) as refused:
                replace(hand[0], **changes)
            assert str(refused.value) == message
        labelled = [(f"n{i}", p.ai_c) for i, p in enumerate(hand)]
        chart = roofline_points(HardwareSpec("x", 1e12, 1e11), labelled, measured={"n0": 5e11, "n2": 7})
        assert [p.measured for p in chart.points] == [5e11, None, 7, None, None]
        for point in chart.points:
            assert_record_parity(point)

    def test_omitted_params_is_a_new_empty_dict_and_none_is_kept(self):
        first, second = LayerSpec("a", "relu"), LayerSpec("b", "relu")
        assert first.params == {} and first.params is not second.params
        assert LayerSpec("c", "conv", ("d",), None).params is None
        assert [f.name for f in fields(LayerSpec)] == ["name", "kind", "inputs", "params", "in_place"]

    @pytest.mark.parametrize("bad", [True, 0, -1, 2.0], ids=["bool", "zero", "negative", "float"])
    @pytest.mark.parametrize("position", [0, 1, 2], ids=["channels", "height", "width"])
    def test_tensor_shape_refuses_every_bad_dimension(self, position, bad):
        dims = [4, 5, 6]
        dims[position] = bad
        c, h, w = dims
        message = f"tensor dimensions must be integers >= 1, got TensorShape(channels={c!r}, height={h!r}, width={w!r})"
        with pytest.raises(ShapeError) as refused:
            TensorShape(*dims)
        assert str(refused.value) == message
        with pytest.raises(ShapeError) as replaced:
            replace(TensorShape(4, 5, 6), **{fields(TensorShape)[position].name: bad})
        assert str(replaced.value) == message

    def test_tensor_shape_keeps_an_int_subclass(self):
        class Size(enum.IntEnum):
            FOUR = 4

        shape = TensorShape(Size.FOUR, 4, 4)
        assert shape.channels is Size.FOUR and shape == TensorShape(4, 4, 4)
        assert_record_parity(shape)


class TestAnnotationsFollowTheGraph:
    """Shapes and costs are filled by the constructor alone, so they always match the layers and input."""

    def graph(self):
        conv = replace(CONV1, params={**CONV1.params, "out_channels": 8})  # 3x3, pad 1: 8x8 out of 8x8
        return ModelGraph(name="hand", input_shape=TensorShape(3, 8, 8), layers=(DATA, conv))

    def test_replaced_input_shape_reshapes_and_recosts(self):
        g = self.graph()
        assert (g.shapes["conv1"], aggregate(g).macs) == (TensorShape(8, 8, 8), 13_824)
        bigger = replace(g, input_shape=TensorShape(3, 64, 64))
        assert (bigger.shapes["conv1"], aggregate(bigger).macs) == (TensorShape(8, 64, 64), 884_736)
        assert bigger.costs == infer_shapes(bigger.layers, bigger.input_shape)[1]

    def test_annotations_cannot_be_passed_in(self):
        with pytest.raises(TypeError, match="shapes"):
            ModelGraph(name="hand", input_shape=TensorShape(3, 8, 8), layers=(DATA,), shapes={"data": TensorShape(3, 8, 8)})

    def test_annotations_cannot_be_replaced(self):
        with pytest.raises(ValueError, match="costs"):
            replace(self.graph(), costs={})


class TestTopoOrder:
    def test_linear_chain(self):
        g = parse_model(SMALLEST)
        assert [l.name for l in topo_order(g.layers)] == ["data", "conv1", "relu1"]

    def test_diamond_tie_broken_by_declaration(self):
        text = """
input: {channels: 4, h: 8, w: 8}
layers:
  - {name: a, kind: input}
  - {name: b, kind: relu, inputs: [a]}
  - {name: c, kind: relu, inputs: [a]}
  - {name: d, kind: add, inputs: [b, c]}
"""
        assert [l.name for l in topo_order(parse_model(text).layers)] == ["a", "b", "c", "d"]

    def test_layer_feeding_itself_is_a_cycle(self):
        # listed after its producer, as every other input is, yet it is its own producer
        text = HEAD + "  - {name: a, kind: add, inputs: [data, a]}\n  - {name: b, kind: relu, inputs: [a]}\n"
        layers = (DATA, LayerSpec("a", "add", ("data", "a")), LayerSpec("b", "relu", ("a",)))
        rejected_both_ways(text, layers, CycleError, "^cycle detected involving layers: a, b$")

    def test_residual_graph_satisfies_predecessor_check(self):
        lines = ["  - {name: data, kind: input}"]
        prev = "data"
        # Stack of residual blocks: conv, conv, add-back, 25 layers total.
        for i in range(8):
            lines.append(f"  - {{name: c{i}a, kind: conv, inputs: [{prev}], out_channels: 4, kernel_h: 3, kernel_w: 3, pad_h: 1, pad_w: 1}}")
            lines.append(f"  - {{name: c{i}b, kind: conv, inputs: [c{i}a], out_channels: 4, kernel_h: 3, kernel_w: 3, pad_h: 1, pad_w: 1}}")
            lines.append(f"  - {{name: s{i}, kind: add, inputs: [{prev}, c{i}b]}}" if i else f"  - {{name: s{i}, kind: add, inputs: [c{i}a, c{i}b]}}")
            prev = f"s{i}"
        text = "input: {channels: 4, h: 8, w: 8}\nlayers:\n" + "\n".join(lines)
        g = parse_model(text)
        assert len(g.layers) == 25
        order = topo_order(g.layers)
        index = {l.name: i for i, l in enumerate(order)}
        for spec in g.layers:
            for ref in spec.inputs:
                assert index[ref] < index[spec.name]


@st.composite
def random_listings(draw):
    """Up to 50 shape-preserving layers with random valid edges, listed in any order."""
    n = draw(st.integers(min_value=1, max_value=49))
    layers = [LayerSpec(name="n0", kind="input")]
    for i in range(1, n + 1):
        upstream = draw(st.lists(st.integers(min_value=0, max_value=i - 1), min_size=1, max_size=min(i, 3), unique=True))
        inputs = tuple(f"n{j}" for j in upstream)
        if len(upstream) >= 2:
            layers.append(LayerSpec(name=f"n{i}", kind="add", inputs=inputs))
        else:
            kind = draw(st.sampled_from(["relu", "batchnorm"]))
            layers.append(LayerSpec(name=f"n{i}", kind=kind, inputs=inputs, in_place=draw(st.booleans())))
    return tuple(draw(st.permutations(layers)))


def random_dags():
    """Graphs built from random_listings."""
    return random_listings().map(lambda layers: ModelGraph(name="random", input_shape=TensorShape(1, 4, 4), layers=layers))


@given(random_dags())
def test_topo_order_respects_every_edge(graph):
    order = topo_order(graph.layers)
    assert order == list(graph.layers)
    assert sorted(l.name for l in order) == sorted(l.name for l in graph.layers)
    index = {l.name: i for i, l in enumerate(order)}
    for spec in graph.layers:
        for ref in spec.inputs:
            assert index[ref] < index[spec.name]


@given(random_listings())
def test_topo_order_breaks_ties_as_the_longhand_scheduler(layers):
    # as drawn, and as a built graph lists them: producers first, which must come back unchanged
    assert topo_order(layers) == longhand_topo_order(layers)
    graph = ModelGraph(name="random", input_shape=TensorShape(1, 4, 4), layers=layers)
    assert topo_order(graph.layers) == longhand_topo_order(graph.layers) == list(graph.layers)

