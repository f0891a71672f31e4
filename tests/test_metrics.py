"""Weighted intensity, disparity and case taxonomy."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from dnnreuse.errors import DegenerateDataError, InputError
from dnnreuse.metrics import (
    CaseTag,
    classify_case,
    disparity,
    weighted_intensity,
)
from dnnreuse.netprofile import NetworkProfile

from oracles import disparity_closed_form

positive = st.floats(min_value=1e-3, max_value=1e9, allow_nan=False, allow_infinity=False)


def profile_from_reuse(weight_reuse, activation_reuse):
    return NetworkProfile.from_reuse(weight_reuse, activation_reuse)


class TestWeightedIntensity:
    def test_reference_pair_with_low_activation_footprint(self):
        p = profile_from_reuse(11.85, 361.50)
        assert weighted_intensity(p, 0.8) == pytest.approx(72.89, abs=0.05)

    def test_reference_pair_with_high_weight_reuse(self):
        p = profile_from_reuse(111.81, 537.15)
        assert weighted_intensity(p, 0.8) == pytest.approx(113.02, abs=0.05)

    def test_endpoints_reduce_to_single_reuse(self):
        p = profile_from_reuse(10.0, 40.0)
        assert weighted_intensity(p, 1.0) == pytest.approx(10.0)  # M_c/A / 4
        assert weighted_intensity(p, 0.0) == pytest.approx(2.5)  # M_c/W / 4

    def test_alpha_out_of_range(self):
        p = profile_from_reuse(1.0, 1.0)
        with pytest.raises(InputError):
            weighted_intensity(p, 1.5)

    def test_coefficients_at_default_alpha(self):
        p = profile_from_reuse(7.0, 13.0)
        assert weighted_intensity(p, 0.8) == pytest.approx(0.2 * 13.0 + 0.05 * 7.0, rel=1e-12)


class TestAiFromReuse:
    """AI_c recovered from the two reuse ratios, through the profile they rebuild; the MAC scale cancels."""

    def test_low_activation_footprint_pair(self):
        assert profile_from_reuse(11.85, 361.50).ai_c == pytest.approx(11.48, abs=0.05)

    def test_inverted_pair(self):
        assert profile_from_reuse(124.80, 12.36).ai_c == pytest.approx(11.24, abs=0.05)

    def test_equal_reuse_halves(self):
        assert profile_from_reuse(8.0, 8.0).ai_c == pytest.approx(4.0)

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            profile_from_reuse(0.0, 1.0)

    @settings(max_examples=500, deadline=None)
    @given(weight_reuse=positive, activation_reuse=positive)
    def test_equals_the_harmonic_form_exactly(self, weight_reuse, activation_reuse):
        expected = weight_reuse * activation_reuse / (weight_reuse + activation_reuse)
        assert profile_from_reuse(weight_reuse, activation_reuse).ai_c == expected


class TestDisparity:
    def test_highest_disparity_case(self):
        p = profile_from_reuse(11.85, 361.50)
        assert disparity(p, 0.8) == pytest.approx(-535.16, rel=0.005)

    def test_balanced_half_case(self):
        p = profile_from_reuse(146.05, 291.34)
        assert disparity(p, 0.8) == pytest.approx(32.60, abs=0.05)

    def test_equal_weights_and_activations_give_fifty(self):
        p = NetworkProfile(macs=1000, weights=25, activations=25)
        assert disparity(p, 0.8) == pytest.approx(50.0, rel=1e-12)

    def test_numerator_beyond_float_range_takes_the_quotient_first(self):
        # AI_c 9.0 and DI 3.4848e306: 100 * (AI_c - DI) leaves float range, d_f itself does not
        k = 4.4e153
        p = NetworkProfile(macs=9 * k * k, weights=k * k, activations=10)
        ai_c, di = p.ai_c, weighted_intensity(p, 0.8)
        assert math.isinf(100 * (ai_c - di))
        assert disparity(p, 0.8) == 100 * ((ai_c - di) / ai_c) == pytest.approx(-3.872e307, rel=1e-12)

    def test_beyond_float_range_refused(self):
        # AI_c 1.0 and DI 1.7956e307: d_f is about -1.8e309
        k = 1.34e154
        p = NetworkProfile(macs=k * k, weights=k * k, activations=2)
        with pytest.raises(DegenerateDataError, match=r"^d_f = 100 \* \(AI_c - DI\) / AI_c leaves float range: AI_c 1.0, DI 1.7956"):
            disparity(p, 0.8)


@settings(max_examples=300, deadline=None)
@given(weights=positive, activations=positive, macs=positive)
def test_disparity_matches_its_closed_form(weights, activations, macs):
    p = NetworkProfile(macs=macs, weights=weights, activations=activations)
    expected = disparity_closed_form(weights, activations)
    assert disparity(p, 0.8) == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_published_simplification_disagrees_with_the_definition():
    """The widely quoted rearrangement 75 - 6.25*(A/W + 3*W/A) is wrong.

    At W/A around 30 it predicts roughly -497 where the definition gives
    about -535; the coefficient-correct form is 75 - 20*(W/A) - 5*(A/W).
    """
    p = profile_from_reuse(11.85, 361.50)
    a_over_w = p.a_over_w
    published = 75 - 6.25 * (a_over_w + 3 / a_over_w)
    definitional = disparity(p, 0.8)
    assert published == pytest.approx(-497.2, abs=0.5)
    assert definitional == pytest.approx(-535.16, rel=0.005)
    assert abs(published - definitional) > 30


class TestClassifyCase:
    def test_scarce_activations(self):
        p = NetworkProfile(macs=100, weights=100, activations=3)
        assert classify_case(p) is CaseTag.ACTIVATIONS_SCARCE

    def test_balanced(self):
        p = NetworkProfile(macs=100, weights=100, activations=183)
        assert classify_case(p) is CaseTag.BALANCED

    def test_dominant_activations(self):
        p = NetworkProfile(macs=100, weights=100, activations=3280)
        assert classify_case(p) is CaseTag.ACTIVATIONS_DOMINANT

    def test_thresholds_configurable(self):
        p = NetworkProfile(macs=100, weights=100, activations=183)
        assert classify_case(p, tau_low=0.1, tau_high=1.5) is CaseTag.ACTIVATIONS_DOMINANT

    @settings(max_examples=200, deadline=None)
    @given(weights=positive, activations=positive, scale=st.floats(1e-6, 1e6))
    def test_invariant_under_uniform_scaling(self, weights, activations, scale):
        p = NetworkProfile(macs=10.0, weights=weights, activations=activations)
        q = NetworkProfile(macs=10.0 * scale, weights=weights * scale, activations=activations * scale)
        assert classify_case(p) is classify_case(q)


def quarter_reuse_sum(profile: NetworkProfile) -> float:
    """(M_c/A + M_c/W)/4, the bound that AI_c never exceeds."""
    return (profile.activation_reuse + profile.weight_reuse) / 4


class TestReuseBound:
    """AI_c never exceeds the quarter reuse sum, up to 1e-9 of the bound for rounding."""

    def test_reference_slack(self):
        p = profile_from_reuse(11.85, 361.50)
        slack = quarter_reuse_sum(p) - p.ai_c
        assert slack == pytest.approx((361.50 + 11.85) / 4 - 11.85 * 361.50 / (11.85 + 361.50), rel=1e-9)
        assert slack > 80

    def test_equality_iff_balanced(self):
        p = NetworkProfile(macs=123.0, weights=7.0, activations=7.0)
        assert quarter_reuse_sum(p) - p.ai_c == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=1000, deadline=None)
    @given(weights=positive, activations=positive, macs=positive)
    @example(weights=0.001, activations=0.0010000000000000002, macs=23513.0)  # AI_c 1.18e7, slack -1.86e-9
    def test_randomized_bound(self, weights, activations, macs):
        p = NetworkProfile(macs=macs, weights=weights, activations=activations)
        bound = quarter_reuse_sum(p)
        slack = bound - p.ai_c
        assert slack >= -1e-9 * bound
        if slack < 1e-12 * p.ai_c:
            assert weights == pytest.approx(activations, rel=1e-5)


@settings(max_examples=200, deadline=None)
@given(weights=positive, activations=positive)
def test_di_is_affine_and_monotone_in_alpha(weights, activations):
    p = NetworkProfile(macs=1000.0, weights=weights, activations=activations)
    lo, mid, hi = (weighted_intensity(p, a) for a in (0.0, 0.5, 1.0))
    assert mid == pytest.approx((lo + hi) / 2, rel=1e-9, abs=1e-12)
    if p.activation_reuse > p.weight_reuse:
        assert hi > lo
    elif p.activation_reuse < p.weight_reuse:
        assert hi < lo
