"""Parsing, validation, shape inference, and topological ordering."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest
import yaml
from hypothesis import given, strategies as st

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


def edges(graph: ModelGraph):
    return [(ref, spec.name) for spec in graph.layers for ref in spec.inputs]


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
        with pytest.raises(UnknownKindError, match="deconv"):
            parse_model(SMALLEST.replace("kind: relu", "kind: deconv"))

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
        with pytest.raises(DuplicateNameError, match="conv1"):
            parse_model(SMALLEST.replace("name: relu1", "name: conv1"))

    def test_dangling_input_rejected(self):
        with pytest.raises(DanglingInputError, match="ghost"):
            parse_model(SMALLEST.replace("inputs: [conv1]", "inputs: [ghost]"))

    def test_syntax_error_reports_position(self):
        with pytest.raises(ModelSyntaxError, match=r"line \d+"):
            parse_model("input: {channels: 3, h: 224, w: 224}\nlayers: [\n  {name: a, kind: input,\n")

    def test_missing_required_param(self):
        with pytest.raises(ModelSyntaxError, match="out_channels"):
            parse_model(SMALLEST.replace("out_channels: 64, ", ""))

    def test_unknown_field_rejected(self):
        with pytest.raises(ModelSyntaxError, match="dilation"):
            parse_model(SMALLEST.replace("pad_h: 1", "dilation: 2, pad_h: 1"))

    def test_in_place_restricted_to_elementwise_kinds(self):
        text = SMALLEST.replace("out_channels: 64", "in_place: true, out_channels: 64")
        with pytest.raises(ModelSyntaxError, match="in_place"):
            parse_model(text)

    def test_exactly_one_input_node(self):
        text = """
input: {channels: 1, h: 4, w: 4}
layers:
  - {name: a, kind: input}
  - {name: b, kind: input}
"""
        with pytest.raises(ModelSyntaxError, match="input"):
            parse_model(text)

    def test_json_document_accepted(self):
        text = (
            '{"input": {"channels": 1, "h": 4, "w": 4},'
            ' "layers": [{"name": "d", "kind": "input"},'
            ' {"name": "r", "kind": "relu", "inputs": ["d"]}]}'
        )
        assert [l.name for l in parse_model(text).layers] == ["d", "r"]


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
