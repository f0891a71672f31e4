"""Parsing, validation, shape inference, and topological ordering."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from dnnreuse import document
from dnnreuse.graph import (
    CycleError,
    DanglingInputError,
    DuplicateNameError,
    LayerSpec,
    ModelGraph,
    ModelSyntaxError,
    ShapeError,
    TensorShape,
    UnknownKindError,
    infer_shapes,
    parse_model,
    serialize_model,
    topo_order,
)

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
        conv = g.layer("conv1")
        assert conv.params["stride_h"] == 1
        assert conv.params["groups"] == 1
        # relu defaults to in-place unless the document says otherwise
        assert g.layer("relu1").in_place is True

    def test_explicit_in_place_false(self):
        text = SMALLEST.replace("kind: relu, inputs: [conv1]", "kind: relu, inputs: [conv1], in_place: false")
        assert parse_model(text).layer("relu1").in_place is False

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
]


@pytest.mark.parametrize("entry, spec, error, match", DEFECTS)
def test_hand_built_graph_is_checked_like_a_parsed_one(entry, spec, error, match):
    text = f"input: {{channels: 3, h: 8, w: 8}}\nlayers:\n  - {{name: d, kind: input}}\n  - {entry}\n"
    rejected_both_ways(text, (LayerSpec("d", "input"), spec), error, match)


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


class TestBuilder:
    """The builder returns what yaml.load returns and raises what it raises, under either loader."""

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


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        g = parse_model(SMALLEST)
        assert parse_model(serialize_model(g)) == g

    def test_round_trip_preserves_in_place_and_params(self):
        text = """
name: tiny
input: {channels: 2, h: 6, w: 6}
layers:
  - {name: data, kind: input}
  - {name: c, kind: conv, inputs: [data], out_channels: 4, kernel_h: 3, kernel_w: 3, stride_h: 2, stride_w: 2, pad_h: 1, pad_w: 1, groups: 2}
  - {name: bn, kind: batchnorm, inputs: [c], in_place: false}
  - {name: p, kind: pool, inputs: [bn], kernel_h: 2, kernel_w: 2, stride_h: 2, stride_w: 2}
  - {name: f, kind: fc, inputs: [p], out_features: 10}
"""
        g = parse_model(text)
        assert parse_model(serialize_model(g)) == g


class TestInferShapes:
    def make(self, body, channels=3, h=224, w=224):
        text = f"input: {{channels: {channels}, h: {h}, w: {w}}}\nlayers:\n  - {{name: data, kind: input}}\n{body}"
        return infer_shapes(parse_model(text))

    def test_same_padding_identity(self):
        g = self.make("  - {name: c, kind: conv, inputs: [data], out_channels: 64, kernel_h: 3, kernel_w: 3, pad_h: 1, pad_w: 1}")
        assert g.output_shape("c") == TensorShape(64, 224, 224)

    def test_strided_conv_floor_formula(self):
        # floor((224 + 0 - 11)/4) + 1 = 54, cross-checked by enumerating
        # valid filter placements: positions 0, 4, ..., 212 inclusive.
        placements = len(range(0, 224 - 11 + 1, 4))
        g = self.make("  - {name: c, kind: conv, inputs: [data], out_channels: 96, kernel_h: 11, kernel_w: 11, stride_h: 4, stride_w: 4}")
        assert g.output_shape("c") == TensorShape(96, 54, 54)
        assert g.output_shape("c").height == placements

    def test_pool_floor_formula(self):
        g = self.make(
            "  - {name: c, kind: conv, inputs: [data], out_channels: 96, kernel_h: 11, kernel_w: 11, stride_h: 4, stride_w: 4}\n"
            "  - {name: p, kind: pool, inputs: [c], kernel_h: 3, kernel_w: 3, stride_h: 2, stride_w: 2}"
        )
        assert g.output_shape("p") == TensorShape(96, 26, 26)

    def test_fc_flattens_input(self):
        g = self.make("  - {name: f, kind: fc, inputs: [data], out_features: 10}", channels=4, h=5, w=5)
        assert g.output_shape("f") == TensorShape(10, 1, 1)

    def test_concat_sums_channels(self):
        g = self.make(
            "  - {name: a, kind: conv, inputs: [data], out_channels: 8, kernel_h: 1, kernel_w: 1}\n"
            "  - {name: b, kind: conv, inputs: [data], out_channels: 24, kernel_h: 1, kernel_w: 1}\n"
            "  - {name: cat, kind: concat, inputs: [a, b]}"
        )
        assert g.output_shape("cat").channels == 32

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
        assert infer_shapes(g).shapes == infer_shapes(g).shapes


class TestTopoOrder:
    def test_linear_chain(self):
        g = parse_model(SMALLEST)
        assert [l.name for l in topo_order(g)] == ["data", "conv1", "relu1"]

    def test_diamond_tie_broken_by_declaration(self):
        text = """
input: {channels: 4, h: 8, w: 8}
layers:
  - {name: a, kind: input}
  - {name: b, kind: relu, inputs: [a]}
  - {name: c, kind: relu, inputs: [a]}
  - {name: d, kind: add, inputs: [b, c]}
"""
        assert [l.name for l in topo_order(parse_model(text))] == ["a", "b", "c", "d"]

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
        order = topo_order(g)
        index = {l.name: i for i, l in enumerate(order)}
        for spec in g.layers:
            for ref in spec.inputs:
                assert index[ref] < index[spec.name]


@st.composite
def random_dags(draw):
    """Graphs of up to 50 shape-preserving layers with random valid edges, declared in any order."""
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
    declared = draw(st.permutations(layers))
    return ModelGraph(name="random", input_shape=TensorShape(1, 4, 4), layers=tuple(declared))


@given(random_dags())
def test_topo_order_respects_every_edge(graph):
    order = topo_order(graph)
    assert order == list(graph.layers)
    assert sorted(l.name for l in order) == sorted(l.name for l in graph.layers)
    index = {l.name: i for i, l in enumerate(order)}
    for spec in graph.layers:
        for ref in spec.inputs:
            assert index[ref] < index[spec.name]


@given(random_dags())
def test_serialize_parse_round_trip_on_random_graphs(graph):
    assert parse_model(serialize_model(graph)) == graph
