"""Whole-network aggregation, liveness, batch scaling, layer statistics."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from dnnreuse.errors import DegenerateDataError, InputError
from dnnreuse.graph import LayerSpec, TensorShape, parse_model
from dnnreuse.layercost import layer_cost
from dnnreuse.netprofile import (
    NetworkProfile,
    aggregate,
    batch_scale,
    layerwise_ai_stats,
    load_profiles,
    peak_concurrent_activations,
)

from oracles import brute_force_peak_activations, longhand_profiles
from test_graph import random_dags


TWO_LAYER = """
input: {channels: 2, h: 2, w: 2}
layers:
  - {name: data, kind: input}
  - {name: c, kind: conv, inputs: [data], out_channels: 3, kernel_h: 2, kernel_w: 2, pad_h: 1, pad_w: 1, stride_h: 2, stride_w: 2}
  - {name: r, kind: relu, inputs: [c], in_place: true}
"""


class TestAggregate:
    def test_hand_summed_two_layer_network(self):
        # conv: 2 in, 3 out channels, 2x2 kernel, 2x2 output
        profile = aggregate(parse_model(TWO_LAYER))
        assert (profile.macs, profile.weights, profile.activations) == (96, 24, 20)
        assert profile.ai_c == pytest.approx(96 / 44)

    def test_not_in_place_relu_adds_one_copy(self):
        profile = aggregate(parse_model(TWO_LAYER.replace("in_place: true", "in_place: false")))
        assert profile.activations == 20 + 12

    def test_zero_work_network_is_degenerate_but_consistent(self):
        g = parse_model(
            """
input: {channels: 1, h: 3, w: 3}
layers:
  - {name: data, kind: input}
  - {name: r, kind: relu, inputs: [data], in_place: true}
"""
        )
        profile = aggregate(g)
        assert profile.macs == 0
        assert profile.ai_c == 0
        assert profile.weights + profile.activations > 0

    def test_derived_ratio_identities(self):
        profile = aggregate(parse_model(TWO_LAYER))
        assert profile.ai_c * (profile.weights + profile.activations) == pytest.approx(profile.macs, rel=1e-12)
        assert profile.a_over_w == pytest.approx(profile.weight_reuse / profile.activation_reuse, rel=1e-12)

    def test_empty_graph_rejected(self):
        from dnnreuse.graph import ModelGraph, TensorShape

        with pytest.raises(InputError):
            aggregate(ModelGraph(name="x", input_shape=TensorShape(1, 1, 1), layers=()))


class TestFromReuse:
    def test_round_trips_the_ratios(self):
        p = NetworkProfile.from_reuse(11.85, 361.50)
        assert p.weight_reuse == pytest.approx(11.85, rel=1e-12)
        assert p.activation_reuse == pytest.approx(361.50, rel=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(InputError):
            NetworkProfile.from_reuse(0.0, 1.0)


    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InputError, match="finite"):
            NetworkProfile.from_reuse(bad, 10.0)
        with pytest.raises(InputError, match="finite"):
            NetworkProfile(macs=bad, weights=1.0, activations=1.0)


class TestLoadProfiles:
    def test_count_and_ratio_forms(self):
        counts = load_profiles("model,macs,weights,activations\na,100,4,6\n")
        assert counts == {"a": (NetworkProfile(100.0, 4.0, 6.0), 100.0)}
        ratios = load_profiles("model,mc_over_w,mc_over_a,macs\nb,5,10,\nc,2,4,8\n")
        assert ratios["b"] == (NetworkProfile.from_reuse(5.0, 10.0), None)
        assert ratios["c"][1] == 8.0

    @pytest.mark.parametrize(
        "text",
        [
            "model,mc_over_w,mc_over_a\nx,nan,10\ny,5,10\n",
            "model,macs,weights,activations\nx,inf,1,1\n",
            "model,mc_over_w,mc_over_a,macs\nx,5,10,inf\n",
            "model,macs,weights,activations\nx,ten,1,1\n",
        ],
    )
    def test_non_numeric_or_non_finite_cells_rejected(self, text):
        with pytest.raises(InputError, match="row 2"):
            load_profiles(text)

    def test_duplicate_model_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            load_profiles("model,mc_over_w,mc_over_a\nx,5,10\nx,6,10\n")

    def test_table_of_neither_form_rejected(self):
        message = "^profile CSV needs either macs,weights,activations or mc_over_w,mc_over_a columns$"
        with pytest.raises(InputError, match=message):
            load_profiles("model,macs,mc_over_w\nx,100,5\n")


COUNT_HEADER = ["model", "macs", "weights", "activations"]
RATIO_HEADER = ["model", "mc_over_w", "mc_over_a", "macs"]
# column orders the loader must find its columns in, a repeated name meaning its last column
HEADERS = (
    COUNT_HEADER,
    ["activations", "model", "weights", "macs"],
    ["model", "macs", "weights", "activations", "macs"],
    RATIO_HEADER,
    ["model", "mc_over_w", "mc_over_a"],
    ["mc_over_a", "model", "macs", "mc_over_w"],
)
# cells that test the checks: 1e200 squared overflows and 1e-200 squared underflows to 0 as a ratio-form product
PROFILE_EDGE_CELLS = ("", "  ", "0", "-0", "-1", " 4 ", "nan", "inf", "-inf", "1e999", "abc", "1e-200", "1e200", "1e308")
PLAIN_PROFILE_CELLS = {
    "macs": st.integers(0, 10**12).map(str) | st.floats(0.0, 1e300).map(repr),
    "weights": st.integers(0, 10**9).map(str) | st.floats(0.0, 1e300).map(repr),
    "activations": st.integers(0, 10**9).map(str) | st.floats(0.0, 1e300).map(repr),
    "mc_over_w": st.floats(5e-324, 1e300).map(repr),
    "mc_over_a": st.floats(5e-324, 1e300).map(repr),
}


def assert_profiles_agree_with_oracle(header, rows):
    """load_profiles gives longhand_profiles' counts, to the bit and in row order, or its exact error."""
    text = ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in rows)
    expected, refusal = longhand_profiles(header, rows)
    if refusal is not None:
        code, message = refusal
        with pytest.raises(InputError if code == 2 else DegenerateDataError) as refused:
            load_profiles(text)
        assert (type(refused.value), str(refused.value)) == ((InputError if code == 2 else DegenerateDataError), message)
        return
    loaded = load_profiles(text)
    # repr keeps what == does not: -0.0 against 0.0, and a float against an int
    assert repr({m: ((p.macs, p.weights, p.activations), macs) for m, (p, macs) in loaded.items()}) == repr(expected)


@st.composite
def profile_tables(draw):
    """A header of either form and one to three rows; in about half the rows, some number cells are edge cells."""
    header = draw(st.sampled_from(HEADERS))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        row = [draw(PLAIN_PROFILE_CELLS[name]) if name in PLAIN_PROFILE_CELLS else "" for name in header]
        row[header.index("model")] = draw(st.sampled_from(("m0", "m1", "m2", " m1 ", "")))
        if "weights" not in header and "macs" in header and draw(st.booleans()):
            row[len(header) - 1 - header[::-1].index("macs")] = ""  # a blank forward-pass count
        if draw(st.booleans()):
            numbers = [i for i, name in enumerate(header) if name != "model"]
            for i in draw(st.sets(st.sampled_from(numbers), min_size=1)):
                row[i] = draw(st.sampled_from(PROFILE_EDGE_CELLS))
        rows.append(row)
    return header, rows


class TestLoadProfilesCellByCell:
    """Every cell is judged as longhand_profiles judges it: the same profile, or the same first error."""

    @settings(max_examples=400, deadline=None)
    @given(profile_tables())
    def test_any_table_agrees_with_the_oracle(self, table):
        assert_profiles_agree_with_oracle(*table)

    @pytest.mark.parametrize("cell", PROFILE_EDGE_CELLS)
    @pytest.mark.parametrize("header, column", [(COUNT_HEADER, c) for c in COUNT_HEADER[1:]] + [(RATIO_HEADER, c) for c in RATIO_HEADER[1:]])
    def test_each_edge_cell_in_each_column(self, header, column, cell):
        good = {"macs": "1000", "weights": "40", "activations": "60", "mc_over_w": "25", "mc_over_a": "12.5"}
        rows = [[name if name == "model" else good[name] for name in header] for _ in range(2)]
        rows[0][0], rows[1][0] = "a", "b"
        rows[1][header.index(column)] = cell
        assert_profiles_agree_with_oracle(header, rows)

    @pytest.mark.parametrize("row, accepted", [
        (["x", "1e200", "1e200", "5"], False),  # the product of the ratios overflows
        (["x", "1e-200", "1e-200", "5"], True),  # the product underflows to 0, which is a count
        (["x", "25", "12.5", ""], True),  # a blank forward-pass count is None
        (["x", "25", "12.5", " "], False),  # a blank cell is empty, not trimmed
    ])
    def test_ratio_form_products_and_forward_counts(self, row, accepted):
        assert (longhand_profiles(RATIO_HEADER, [row])[1] is None) is accepted
        assert_profiles_agree_with_oracle(RATIO_HEADER, [row])


class TestPeakConcurrent:
    def test_chain_peak_is_adjacent_pair(self):
        g = parse_model(
            """
input: {channels: 10, h: 1, w: 1}
layers:
  - {name: data, kind: input}
  - {name: c1, kind: conv, inputs: [data], out_channels: 20, kernel_h: 1, kernel_w: 1}
  - {name: c2, kind: conv, inputs: [c1], out_channels: 5, kernel_h: 1, kernel_w: 1}
"""
        )
        assert peak_concurrent_activations(g) == 30
        assert brute_force_peak_activations(g) == 30

    def test_residual_keeps_skip_operand_alive(self):
        g = parse_model(
            """
input: {channels: 10, h: 1, w: 1}
layers:
  - {name: data, kind: input}
  - {name: c1, kind: conv, inputs: [data], out_channels: 10, kernel_h: 1, kernel_w: 1}
  - {name: c2, kind: conv, inputs: [c1], out_channels: 10, kernel_h: 1, kernel_w: 1}
  - {name: s, kind: add, inputs: [data, c2]}
"""
        )
        assert peak_concurrent_activations(g) == 30
        assert brute_force_peak_activations(g) == 30

    def test_dense_concats_match_exhaustive_oracle(self):
        g = parse_model(
            """
input: {channels: 4, h: 2, w: 2}
layers:
  - {name: data, kind: input}
  - {name: c1, kind: conv, inputs: [data], out_channels: 4, kernel_h: 1, kernel_w: 1}
  - {name: cat1, kind: concat, inputs: [data, c1]}
  - {name: c2, kind: conv, inputs: [cat1], out_channels: 4, kernel_h: 1, kernel_w: 1}
  - {name: cat2, kind: concat, inputs: [data, c1, c2]}
  - {name: c3, kind: conv, inputs: [cat2], out_channels: 4, kernel_h: 1, kernel_w: 1}
  - {name: cat3, kind: concat, inputs: [cat2, c3]}
"""
        )
        assert peak_concurrent_activations(g) == brute_force_peak_activations(g)

    def test_in_place_layers_alias_storage(self):
        # The wide tensor sits in the middle; only a copying relu holds
        # two wide tensors at once.
        base = """
input: {channels: 1, h: 4, w: 4}
layers:
  - {name: data, kind: input}
  - {name: c1, kind: conv, inputs: [data], out_channels: 64, kernel_h: 1, kernel_w: 1}
  - {name: r1, kind: relu, inputs: [c1], in_place: %s}
  - {name: c2, kind: conv, inputs: [r1], out_channels: 1, kernel_h: 1, kernel_w: 1}
"""
        aliased = parse_model(base % "true")
        copied = parse_model(base % "false")
        assert peak_concurrent_activations(aliased) == brute_force_peak_activations(aliased)
        assert peak_concurrent_activations(copied) == brute_force_peak_activations(copied)
        assert peak_concurrent_activations(copied) == 2048
        assert peak_concurrent_activations(aliased) == 1040

    @settings(deadline=None)
    @given(random_dags())
    def test_matches_exhaustive_oracle_on_random_dags(self, graph):
        assert peak_concurrent_activations(graph) == brute_force_peak_activations(graph)

    def test_peak_never_exceeds_total_activations(self):
        for text in (TWO_LAYER, TWO_LAYER.replace("in_place: true", "in_place: false")):
            g = parse_model(text)
            assert peak_concurrent_activations(g) <= aggregate(g).activations


class TestLayerwiseStats:
    def test_single_conv_network(self):
        stats = layerwise_ai_stats(parse_model(TWO_LAYER))
        assert len(stats.per_layer_ai) == 1
        (name, ai), = stats.per_layer_ai
        assert name == "c"
        assert stats.median == ai
        assert stats.variance == 0.0
        # 96 MACs over 24 weights + 12 produced elements
        assert ai == pytest.approx(96 / 36)

    def test_median_of_even_count_is_midpoint(self):
        g = parse_model(
            """
input: {channels: 4, h: 1, w: 1}
layers:
  - {name: data, kind: input}
  - {name: f1, kind: fc, inputs: [data], out_features: 8}
  - {name: f2, kind: fc, inputs: [f1], out_features: 2}
"""
        )
        stats = layerwise_ai_stats(g)
        a1 = 32 / (32 + 8)
        a2 = 16 / (16 + 2)
        assert stats.median == pytest.approx((a1 + a2) / 2)

    def test_median_within_range(self):
        g = parse_model(TWO_LAYER)
        stats = layerwise_ai_stats(g)
        values = [ai for _, ai in stats.per_layer_ai]
        assert min(values) <= stats.median <= max(values)

    def test_no_mac_layers_is_degenerate(self):
        g = parse_model(
            """
input: {channels: 1, h: 3, w: 3}
layers:
  - {name: data, kind: input}
  - {name: p, kind: pool, inputs: [data], kernel_h: 3, kernel_w: 3}
"""
        )
        with pytest.raises(DegenerateDataError):
            layerwise_ai_stats(g)


class TestBatchScale:
    def test_reuse_identities(self):
        p = NetworkProfile(macs=100, weights=10, activations=5)
        scaled = batch_scale(p, 2)
        assert scaled.weight_reuse == 20
        assert scaled.activation_reuse == 20
        assert scaled.ai_c == pytest.approx(200 / (10 + 10))

    def test_identity_at_one(self):
        p = NetworkProfile(macs=100, weights=10, activations=5)
        assert batch_scale(p, 1) == p

    def test_fc_dominated_network_becomes_compute_bound(self):
        fc = LayerSpec("fc", "fc", ("x",), {"out_features": 1000})
        cost = layer_cost(fc, [TensorShape(4096, 1, 1)], TensorShape(1000, 1, 1))
        p = NetworkProfile(macs=cost.macs, weights=cost.weights, activations=cost.activations)
        scaled = batch_scale(p, 64)
        assert scaled.weight_reuse == pytest.approx(64, rel=1e-3)
        assert scaled.activation_reuse == p.activation_reuse

    def test_rejects_zero(self):
        p = NetworkProfile(macs=1, weights=1, activations=1)
        with pytest.raises(InputError):
            batch_scale(p, 0)

    def test_rejects_a_profile_not_at_batch_1(self):
        p = batch_scale(NetworkProfile(macs=1, weights=1, activations=1), 4)
        with pytest.raises(InputError, match="^batch_scale expects a batch-1 profile$"):
            batch_scale(p, 2)

    @pytest.mark.parametrize("b", [2.5, 2.0, True])
    def test_rejects_a_batch_that_is_not_an_integer(self, b):
        # True would be taken as batch 1, and 2.5 would scale the counts by a fraction of a network
        p = NetworkProfile(macs=1, weights=1, activations=1)
        with pytest.raises(InputError, match="^batch size must be an integer >= 1, got "):
            batch_scale(p, b)


@settings(max_examples=300, deadline=None)
@given(
    macs=st.integers(1, 10**9),
    weights=st.integers(1, 10**7),
    activations=st.integers(1, 10**7),
    b=st.integers(1, 64),
)
def test_batch_scale_exact_integer_identities(macs, weights, activations, b):
    p = NetworkProfile(macs=macs, weights=weights, activations=activations)
    scaled = batch_scale(p, b)
    # exact at the count level, where the identities are integer ones
    assert scaled.macs == b * p.macs
    assert scaled.weights == p.weights
    assert scaled.activations == b * p.activations
    # b*macs and b*activations divide to the same rational, so the float
    # ratio is bit-identical; weight reuse rounds twice, hence approx
    assert scaled.activation_reuse == p.activation_reuse
    assert scaled.weight_reuse == pytest.approx(b * p.weight_reuse, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    macs=st.floats(1, 1e12),
    weights=st.floats(1e-3, 1e9),
    activations=st.floats(1e-3, 1e9),
)
def test_harmonic_bound_on_random_profiles(macs, weights, activations):
    p = NetworkProfile(macs=macs, weights=weights, activations=activations)
    bound = (p.weight_reuse + p.activation_reuse) / 4
    assert p.ai_c <= bound * (1 + 1e-9)
