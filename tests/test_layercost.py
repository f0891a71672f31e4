"""Layer cost counters against brute-force enumeration and closed forms."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from dnnreuse.graph import LAYER_KINDS, LayerSpec, TensorShape, parse_model
from dnnreuse.layercost import LayerCost, layer_cost

from oracles import brute_force_conv, closed_form_reuse, longhand_layer_costs


def make_conv(out_channels, kernel, stride=1, pad=0, groups=1):
    return LayerSpec(
        name="c",
        kind="conv",
        inputs=("x",),
        params={
            "out_channels": out_channels,
            "kernel_h": kernel,
            "kernel_w": kernel,
            "stride_h": stride,
            "stride_w": stride,
            "pad_h": pad,
            "pad_w": pad,
            "groups": groups,
        },
    )


def square_conv_cost(m, n, s_k, s_o, g=1):
    """Cost with ifmap and ofmap both s_o x s_o (stride 1, same padding)."""
    return layer_cost(make_conv(n, s_k, groups=g), [TensorShape(m, s_o, s_o)], TensorShape(n, s_o, s_o))


def counted_ai(cost: LayerCost) -> float:
    return cost.macs / (cost.weights + cost.activations)


def fc_cost(in_shape, out_features):
    spec = LayerSpec(name="f", kind="fc", inputs=("x",), params={"out_features": out_features})
    return layer_cost(spec, [in_shape], TensorShape(out_features, 1, 1))


class TestConvCost:
    def test_tiny_standard_case(self):
        got = square_conv_cost(m=2, n=3, s_k=2, s_o=2)
        assert (got.macs, got.weights, got.activations) == (96, 24, 20)
        assert (got.macs, got.weights, got.activations) == brute_force_conv(2, 3, 2, 2, 2, 2, 2, 2, 1)

    def test_tiny_depthwise_case(self):
        got = square_conv_cost(m=3, n=3, s_k=3, s_o=2, g=3)
        assert (got.macs, got.weights, got.activations) == (108, 27, 24)
        assert got.macs / got.activations == 4.5  # s_k^2 / 2
        assert (got.macs, got.weights, got.activations) == brute_force_conv(3, 3, 3, 3, 2, 2, 2, 2, 3)

    def test_family_reference_point(self):
        standard = square_conv_cost(256, 256, 3, 28)
        assert standard.macs == 462_422_016

    def test_family_ratios_normalized_to_standard(self):
        standard = square_conv_cost(256, 256, 3, 28)
        pointwise = square_conv_cost(256, 256, 1, 28)
        group = square_conv_cost(256, 256, 3, 28, g=4)
        depthwise = square_conv_cost(256, 256, 3, 28, g=256)
        for cost, mac_ratio in ((pointwise, 0.111), (group, 0.250), (depthwise, 0.004)):
            assert cost.macs / standard.macs == pytest.approx(mac_ratio, abs=0.01)
            # same feature-map dims, so the activation totals match and
            # the activation-reuse ratio equals the MAC ratio
            assert cost.activations == standard.activations
            assert (cost.macs / cost.activations) / (standard.macs / standard.activations) == pytest.approx(mac_ratio, abs=0.01)

    def test_weight_reuse_is_output_area_for_every_family(self):
        for g in (1, 4, 256):
            cost = square_conv_cost(256, 256, 3, 28, g=g)
            assert cost.macs / cost.weights == 28 * 28

    def test_rectangular_kernel_and_fmap(self):
        spec = make_conv(out_channels=5, kernel=1)
        spec.params.update({"kernel_h": 3, "kernel_w": 2})
        got = layer_cost(spec, [TensorShape(4, 7, 9)], TensorShape(5, 5, 8))
        macs, weights, acts = brute_force_conv(4, 5, 3, 2, 7, 9, 5, 8, 1)
        assert (got.macs, got.weights, got.activations) == (macs, weights, acts)
        assert got.macs / got.weights == 5 * 8


def random_conv_case(rng):
    g = rng.choice([1, 1, 1, 2, 4, "depthwise"])
    if g == "depthwise":
        m = n = rng.randint(1, 16)
        g = m
    else:
        m = g * rng.randint(1, max(1, 16 // g))
        n = g * rng.randint(1, max(1, 16 // g))
    kh, kw = rng.randint(1, 3), rng.randint(1, 3)
    sh, sw = rng.randint(1, 3), rng.randint(1, 3)
    ph, pw = rng.randint(0, 2), rng.randint(0, 2)
    ih = rng.randint(max(1, kh - 2 * ph), kh - 2 * ph + 12)
    iw = rng.randint(max(1, kw - 2 * pw), kw - 2 * pw + 12)
    oh = (ih + 2 * ph - kh) // sh + 1
    ow = (iw + 2 * pw - kw) // sw + 1
    return m, n, kh, kw, ih, iw, min(oh, 5), min(ow, 5), g


def test_conv_cost_matches_loop_nest_enumeration():
    rng = random.Random(20240817)
    for _ in range(1000):
        m, n, kh, kw, ih, iw, oh, ow, g = random_conv_case(rng)
        spec = make_conv(n, 1, groups=g)
        spec.params.update({"kernel_h": kh, "kernel_w": kw})
        got = layer_cost(spec, [TensorShape(m, ih, iw)], TensorShape(n, oh, ow))
        expect = brute_force_conv(m, n, kh, kw, ih, iw, oh, ow, g)
        assert (got.macs, got.weights, got.activations) == expect


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_conv_cost_matches_loop_nest_enumeration_hypothesis(data):
    g = data.draw(st.sampled_from([1, 2, 4, 8]), label="g")
    m = g * data.draw(st.integers(1, max(1, 16 // g)), label="m/g")
    depthwise = data.draw(st.booleans(), label="depthwise")
    if depthwise:
        n, g = m, m
    else:
        n = g * data.draw(st.integers(1, max(1, 16 // g)), label="n/g")
    kh = data.draw(st.integers(1, 3), label="kh")
    kw = data.draw(st.integers(1, 3), label="kw")
    ih = data.draw(st.integers(kh, kh + 8), label="ih")
    iw = data.draw(st.integers(kw, kw + 8), label="iw")
    oh = data.draw(st.integers(1, 5), label="oh")
    ow = data.draw(st.integers(1, 5), label="ow")
    spec = make_conv(n, 1, groups=g)
    spec.params.update({"kernel_h": kh, "kernel_w": kw})
    got = layer_cost(spec, [TensorShape(m, ih, iw)], TensorShape(n, oh, ow))
    assert (got.macs, got.weights, got.activations) == brute_force_conv(m, n, kh, kw, ih, iw, oh, ow, g)


class TestFcCost:
    def test_classifier_head_is_near_unit_intensity(self):
        got = fc_cost(TensorShape(4096, 1, 1), 1000)
        assert got.macs == got.weights == 4_096_000
        assert got.activations == 5096
        ai = got.macs / (got.weights + got.activations)
        assert ai == pytest.approx(0.99876, abs=1e-5)

    def test_unit_case(self):
        assert fc_cost(TensorShape(1, 1, 1), 1) == LayerCost(1, 1, 2)

    def test_flattened_feature_map(self):
        assert fc_cost(TensorShape(256, 6, 6), 4096).macs == 37_748_736


class TestNonconvCost:
    def test_in_place_relu_contributes_nothing(self):
        shape = TensorShape(64, 224, 224)
        got = layer_cost(LayerSpec("r", "relu", ("x",), in_place=True), [shape], shape)
        assert (got.macs, got.weights, got.activations) == (0, 0, 0)

    def test_add_counts_operands_and_result(self):
        shape = TensorShape(256, 14, 14)
        got = layer_cost(LayerSpec("a", "add", ("x", "y")), [shape, shape], shape)
        assert got.activations == 3 * 256 * 14 * 14 == 150_528

    def test_batchnorm_affine_parameters(self):
        shape = TensorShape(32, 56, 56)
        got = layer_cost(LayerSpec("b", "batchnorm", ("x",), in_place=False), [shape], shape)
        assert (got.macs, got.weights, got.activations) == (0, 64, 2 * 32 * 56 * 56)

    def test_input_counts_its_own_elements(self):
        shape = TensorShape(3, 224, 224)
        got = layer_cost(LayerSpec("d", "input"), [], shape)
        assert got.activations == shape.element_count()


def test_every_fixture_layer_costs_as_counted_longhand(model_dir):
    # the graph's cost of each layer, kind by kind, against a walk of the raw document
    counted, kinds = 0, set()
    for path in sorted(model_dir.glob("*.yaml")):
        text = path.read_text()
        graph = parse_model(text)
        want = longhand_layer_costs(text)
        assert graph.costs.keys() == want.keys(), path.name
        for spec in graph.layers:
            cost = graph.costs[spec.name]
            got = (cost.macs, cost.weights, cost.activations)
            assert got == want[spec.name] and all(type(n) is int for n in got), (path.name, spec.name, got, want[spec.name])
            kinds.add(spec.kind)
        counted += len(graph.layers)
    assert counted == 9025
    assert kinds == set(LAYER_KINDS)


def conv_family(spec: LayerSpec, in_channels: int) -> str:
    """pointwise or standard with groups 1 (by kernel), depthwise with groups = in = out channels, else group."""
    p = spec.params
    if p["groups"] == 1:
        return "pointwise" if p["kernel_h"] == p["kernel_w"] == 1 else "standard"
    return "depthwise" if p["groups"] == in_channels == p["out_channels"] else "group"


def test_every_eligible_fixture_conv_meets_its_family_closed_forms(model_dir):
    # eligible: a square kernel over a square map that keeps its spatial size, the closed forms' assumptions
    census, eligible = Counter(), Counter()
    for path in sorted(model_dir.glob("*.yaml")):
        graph = parse_model(path.read_text())
        for spec in graph.layers:
            if spec.kind != "conv":
                continue
            p, ifmap, ofmap = spec.params, graph.shapes[spec.inputs[0]], graph.shapes[spec.name]
            family = conv_family(spec, ifmap.channels)
            census[family] += 1
            s_k, s_o = p["kernel_h"], ofmap.height
            if not (p["kernel_w"] == s_k and ifmap.height == ifmap.width == ofmap.width == s_o):
                continue
            eligible[family] += 1
            cost = graph.costs[spec.name]
            counted = {
                "ai": counted_ai(cost), "weight_reuse": cost.macs / cost.weights, "activation_reuse": cost.macs / cost.activations
            }
            closed = closed_form_reuse(family, ifmap.channels, ofmap.channels, s_k, s_o, p["groups"])
            for ratio, value in closed.items():
                assert abs(counted[ratio] - value) <= 1e-12 * value, (path.name, spec.name, ratio, counted[ratio], value)
    assert census == {"pointwise": 1279, "standard": 755, "group": 94, "depthwise": 64}
    assert eligible == {"pointwise": 1227, "standard": 458, "depthwise": 56, "group": 46}


# the families of the paper's comparison at m = n = 256, s_o = 28: (family, s_k, g)
FAMILIES_AT_256 = {"standard": (3, 1), "pointwise": (1, 1), "group": (3, 4), "depthwise": (3, 256)}


def intensities_at_256():
    """(closed-form, counted) intensity of each family of FAMILIES_AT_256, by family."""
    closed = {family: closed_form_reuse(family, 256, 256, s_k, 28, g)["ai"] for family, (s_k, g) in FAMILIES_AT_256.items()}
    counted = {family: counted_ai(square_conv_cost(256, 256, s_k, 28, g)) for family, (s_k, g) in FAMILIES_AT_256.items()}
    return closed, counted


class TestClosedForms:
    def test_standard_reference_intensity(self):
        got = closed_form_reuse("standard", 256, 256, 3, 28)
        assert got["ai"] == pytest.approx(466.5124, abs=0.01)
        assert got["weight_reuse"] == 784

    def test_intensity_ratios_match_published_rounding(self):
        for ai in intensities_at_256():
            for family, published in (("pointwise", 0.24), ("group", 0.45), ("depthwise", 0.01)):
                assert ai[family] / ai["standard"] == pytest.approx(published, abs=0.01), family

    def test_intensity_ordering_across_families(self):
        for ai in intensities_at_256():
            assert ai["standard"] > ai["group"] > ai["pointwise"] > ai["depthwise"]

    def test_depthwise_activation_reuse_is_half_kernel_area(self):
        for m in (3, 17, 256):
            got = closed_form_reuse("depthwise", m, m, 3, 28, g=m)
            assert got["activation_reuse"] == 4.5

    @pytest.mark.parametrize(
        "family,m,n,s_k,g",
        [("standard", 8, 12, 3, 1), ("pointwise", 16, 4, 1, 1), ("group", 8, 12, 3, 4), ("depthwise", 9, 9, 3, 9)],
    )
    def test_closed_form_agrees_with_counting(self, family, m, n, s_k, g):
        s_o = 7
        cost = square_conv_cost(m, n, s_k, s_o, g=g)
        got = closed_form_reuse(family, m, n, s_k, s_o, g=g)
        assert abs(got["ai"] - counted_ai(cost)) <= 1e-12 * counted_ai(cost)
        assert got["weight_reuse"] == cost.macs / cost.weights
        assert got["activation_reuse"] == pytest.approx(cost.macs / cost.activations, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 16),
    n=st.integers(1, 16),
    s_k=st.integers(1, 3),
    s_o=st.integers(1, 5),
)
def test_weight_reuse_identity_on_square_cases(m, n, s_k, s_o):
    cost = square_conv_cost(m, n, s_k, s_o)
    assert cost.macs == cost.weights * s_o * s_o
