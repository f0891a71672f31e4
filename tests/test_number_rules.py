"""The number rules of `dnnreuse.errors` and the public functions that apply them.

Every number a caller passes is either taken or refused with InputError:
no NaN, inf, bool, fraction, non-positive or out-of-range value may come
back as a result or end in another exception.
"""

import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from dnnreuse.errors import InputError, integer, positive
from dnnreuse.graph import ModelSyntaxError
from dnnreuse.netprofile import NetworkProfile, batch_scale
from dnnreuse.roofline import HardwareSpec, classify, roofline_points
from dnnreuse.stats import fisher_ci, fisher_z_width

BEYOND_FLOAT = st.integers(min_value=2**1024)  # 10**400 among them


def not_a_count(minimum=1):
    return st.one_of(st.floats(), st.booleans(), st.integers(max_value=minimum - 1), BEYOND_FLOAT)


NOT_POSITIVE = st.one_of(
    st.floats(max_value=0.0), st.sampled_from([math.nan, math.inf, True, False]), st.integers(max_value=0), BEYOND_FLOAT
)
NOT_A_CORRELATION = st.one_of(
    st.floats().filter(lambda r: not -1 < r < 1), st.just(True), st.integers(max_value=-1), BEYOND_FLOAT
)

HW = HardwareSpec("x", 1e12, 1e11)
# (call with the value under test in one parameter, values that parameter refuses)
REFUSALS = {
    "batch_scale.b": (lambda v: batch_scale(NetworkProfile(1.0, 1.0, 1.0), v), not_a_count()),
    "fisher_ci.r": (lambda v: fisher_ci(v, 25), NOT_A_CORRELATION),
    "fisher_ci.n": (lambda v: fisher_ci(0.5, v), not_a_count(4)),
    "fisher_z_width.n": (fisher_z_width, not_a_count(4)),
    "HardwareSpec.peak_throughput": (lambda v: HardwareSpec("x", v, 1e11), NOT_POSITIVE),
    "HardwareSpec.peak_bandwidth": (lambda v: HardwareSpec("x", 1e12, v), NOT_POSITIVE),
    "classify.intensity": (lambda v: classify(HW, v), NOT_POSITIVE),
    "classify.bytes_per_element": (lambda v: classify(HW, 10.0, "converted", bytes_per_element=v), NOT_POSITIVE),
    "classify.flops_per_mac": (lambda v: classify(HW, 10.0, "converted", flops_per_mac=v), NOT_POSITIVE),
    "roofline_points.intensity": (lambda v: roofline_points(HW, [("a", 10.0), ("b", v)]), NOT_POSITIVE),
    "roofline_points.bytes_per_element": (lambda v: roofline_points(HW, [("a", 10.0)], bytes_per_element=v), NOT_POSITIVE),
    "roofline_points.flops_per_mac": (lambda v: roofline_points(HW, [("a", 10.0)], flops_per_mac=v), NOT_POSITIVE),
}


@pytest.mark.parametrize("call, refused", REFUSALS.values(), ids=REFUSALS)
@given(data=st.data())
def test_a_refused_number_raises_input_error(call, refused, data):
    value = data.draw(refused)
    with pytest.raises(InputError):
        call(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, 2.5, 0, -1, 10**400])
def test_each_listed_value_is_refused_where_it_applies(value):
    for name, (call, refused) in REFUSALS.items():
        if value == 2.5 and name.startswith(("HardwareSpec", "classify", "roofline_points")):
            continue  # a valid peak, intensity and conversion factor
        if value == 0 and name == "fisher_ci.r":
            continue
        with pytest.raises(InputError):
            call(value)


class TestIntegerRule:
    @pytest.mark.parametrize("value", [1, 7, int(sys.float_info.max)])
    def test_accepts_an_int_in_range(self, value):
        assert integer(value, "k") is value

    @pytest.mark.parametrize("value", [0, True, 2.0, "3", None])
    def test_refuses_what_is_not_an_int_from_the_minimum(self, value):
        with pytest.raises(InputError, match=r"^k must be an integer >= 1, got "):
            integer(value, "k")

    def test_refuses_an_int_beyond_float_range(self):
        with pytest.raises(InputError, match=r"^k must be within float range, got 1000000"):
            integer(10**400, "k")

    def test_minimum_and_error_class(self):
        assert integer(0, "pad", minimum=0) == 0
        with pytest.raises(ModelSyntaxError, match=r"^n must be an integer >= 4, got 3$"):
            integer(3, "n", 4, ModelSyntaxError)


class TestPositiveRule:
    @given(st.one_of(st.floats(min_value=5e-324, max_value=sys.float_info.max), st.integers(1, 2**1023)))
    @example(5e-324)
    def test_accepts_a_finite_number_above_zero(self, value):
        assert positive(value, "x") is value

    @pytest.mark.parametrize("value, message", [
        (0, "x must be positive, got 0"),
        (-2.5, "x must be positive, got -2.5"),
        (math.nan, "x must be a finite number, got nan"),
        (True, "x must be a finite number, got True"),
    ])
    def test_refuses_with_its_message(self, value, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            positive(value, "x")


FLOAT_MAX = sys.float_info.max


def rounds_beyond_float_range(quotient: Fraction) -> bool:
    try:
        float(quotient)
    except OverflowError:
        return True
    return False

COUNTS = st.floats(min_value=0.0, max_value=FLOAT_MAX) | st.sampled_from([1e308, FLOAT_MAX, 5e-324])


class TestProfileCounts:
    @pytest.mark.parametrize("counts, message", [
        ((True, 1, 1), "macs must be a finite number, got True"),
        ((1.0, "2", 1.0), "weights must be a finite number, got '2'"),
        ((-1.0, math.nan, 1.0), "weights must be a finite number, got nan"),
        ((1, 1, 10**400), "activations must be a finite number, got 1000"),
        ((1.0, 1.0, -math.inf), "activations must be a finite number, got -inf"),
        ((-1.0, 1.0, 1.0), "profile counts must be non-negative"),
        ((1.0, -5e-324, 1.0), "profile counts must be non-negative"),
        ((1e308, 0, 1e-10), "macs / activations leaves float range: 1e+308 / 1e-10"),
        ((1.0, 5e-324, 1e308), "macs / weights leaves float range: 1.0 / 5e-324"),
        ((FLOAT_MAX, 0.5, 0.0), "macs / weights leaves float range: 1.7976931348623157e+308 / 0.5"),
        ((FLOAT_MAX, 0.5, 0.5), "macs / weights leaves float range: 1.7976931348623157e+308 / 0.5"),
    ])
    def test_a_refused_count_names_the_first_that_fails(self, counts, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}"):
            NetworkProfile(*counts)

    def test_reuse_quotients_of_exactly_float_max_are_taken(self):
        p = NetworkProfile(FLOAT_MAX / 2, 0.5, 0.5)
        assert p.weight_reuse == p.activation_reuse == FLOAT_MAX
        assert p.ai_c == FLOAT_MAX / 2

    def test_a_batch_that_takes_a_reuse_quotient_beyond_float_range_is_refused(self):
        # 1e300 / 0.5 is in range; at batch 10**8 macs is 1e308, and 1e308 / 0.5 is not
        with pytest.raises(InputError, match=r"^macs / weights leaves float range: 1e\+308 / 0\.5$"):
            batch_scale(NetworkProfile(1e300, 0.5, 1.0), 10**8)

    def test_ai_c_of_counts_whose_sum_leaves_float_range(self):
        assert NetworkProfile(1e308, 1e308, 1e308).ai_c == 0.5
        assert NetworkProfile(FLOAT_MAX, FLOAT_MAX, FLOAT_MAX).ai_c == 0.5
        assert NetworkProfile(10**308, 10**308, 1e308).ai_c == 0.5  # an int and a float

    @given(COUNTS, COUNTS, COUNTS)
    def test_ai_c_is_the_quotient_of_the_counts(self, macs, weights, activations):
        assume(weights + activations > 0)
        exact = Fraction(macs) / (Fraction(weights) + Fraction(activations))
        if any(count > 0 and rounds_beyond_float_range(Fraction(macs) / Fraction(count)) for count in (weights, activations)):
            # AI_c's quotient among them or not: a reuse quotient beyond float range is refused, never read as inf
            with pytest.raises(InputError, match=r"^macs / (weights|activations) leaves float range: "):
                NetworkProfile(macs, weights, activations)
            return
        assert not rounds_beyond_float_range(exact)
        ai_c = NetworkProfile(macs, weights, activations).ai_c
        if weights + activations <= FLOAT_MAX:
            assert ai_c.hex() == (macs / (weights + activations)).hex()
        # within two roundings of the exact quotient, or below the normal range
        assert math.isclose(ai_c, float(exact), rel_tol=4.5e-16, abs_tol=2.3e-308)
