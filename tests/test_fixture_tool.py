"""The fixture tool's serializer: parse_model(serialize_model(g)) == g, and the fixtures it wrote come back byte for byte."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest
from hypothesis import given

from dnnreuse.graph import parse_model
from test_graph import SMALLEST, random_dags

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "build_model_fixtures.py"


def load_tool():
    """The tool as a module, loaded from its path; its main() does not run."""
    spec = importlib.util.spec_from_file_location("build_model_fixtures", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


serialize_model = load_tool().serialize_model


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


@given(random_dags())
def test_serialize_parse_round_trip_on_random_graphs(graph):
    assert parse_model(serialize_model(graph)) == graph


@pytest.mark.parametrize("name", ["alexnet", "inception-v3", "mobilenet-v2"])  # groups, 1xn kernels and concats, depthwise and adds
def test_a_fixture_comes_back_byte_for_byte(model_dir, name):
    text = (model_dir / f"{name}.yaml").read_text()
    assert serialize_model(parse_model(text)) == text
