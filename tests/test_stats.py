import math

import pytest
from hypothesis import example, given, strategies as st

from dnnreuse import stats
from dnnreuse.errors import DegenerateDataError, InputError
from dnnreuse.metrics import weighted_intensity
from dnnreuse.netprofile import NetworkProfile
from dnnreuse.stats import (
    _average_ranks,
    CalibrationPoint,
    alpha_grid,
    alpha_sweep,
    fisher_ci,
    fisher_z_width,
    pearson,
    select_alpha,
    spearman,
)
from tests.oracles import (
    FISHER_Z_CRITICAL,
    longhand_correlation_refusal,
    longhand_fisher_ci,
    longhand_min_sample_size,
    rank_formula_spearman,
)


def curve_from_series(r_values, step):
    return tuple(CalibrationPoint(alpha=round(i * step, 10), r_p=r, r_s=r) for i, r in enumerate(r_values))


class TestPearson:
    def test_hand_value(self):
        # dx.dy = 3, |dx| = sqrt(2), |dy| = sqrt(42)/3
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(9 / math.sqrt(84), rel=1e-9)
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(0.98198, abs=1e-5)

    def test_perfect_and_inverse(self):
        assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        assert pearson([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)

    def test_zero_variance_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            pearson([5, 5, 5], [1, 2, 3])
        with pytest.raises(DegenerateDataError):
            pearson([1, 2, 3], [7, 7, 7])

    def test_non_finite_is_degenerate(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DegenerateDataError):
                pearson([1, bad, 3], [1, 2, 4])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            pearson([1, 2, 3], [1, 2])

    def test_too_short_rejected(self):
        with pytest.raises(InputError):
            pearson([1, 2], [3, 4])

    @pytest.mark.parametrize("xs", [[[1, 2], [3], [4]], [1, "x", 3], [1, None, 3]])
    def test_ragged_or_non_numeric_rejected(self, xs):
        with pytest.raises(InputError):
            pearson(xs, [1, 2, 3])

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=20),
        st.floats(min_value=0.1, max_value=50),
        st.floats(min_value=-40, max_value=40),
    )
    # squares of deviations near 1e-158 would underflow to subnormals
    @example(xs=[0.0, 0.0, 1.2065e-158], a=0.125, b=0.0)
    def test_affine_invariance(self, xs, a, b):
        ys = [(i * 1.7 - 3) ** 2 for i in range(len(xs))]
        try:
            base = pearson(xs, ys)
            shifted = pearson([a * x + b for x in xs], ys)
        except DegenerateDataError:
            # spread too small to survive the affine map in floats
            return
        assert shifted == pytest.approx(base, abs=1e-7)


class TestSpearman:
    def test_hand_value_single_swap(self):
        # one adjacent swap in 4 items: 1 - 6*2/60
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_matches_rank_formula_without_ties(self):
        xs = [3.2, 1.1, 4.8, 0.5, 2.9, 7.7]
        ys = [10, 40, 5, 80, 30, 1]
        assert spearman(xs, ys) == pytest.approx(rank_formula_spearman(xs, ys), abs=1e-12)

    def test_ties_use_average_ranks(self):
        xs = [1, 2, 2, 4]
        ys = [10, 20, 30, 40]
        # tied pair takes rank 2.5 each
        assert spearman(xs, ys) == pytest.approx(pearson([1, 2.5, 2.5, 4], [1, 2, 3, 4]), abs=1e-12)

    def test_runs_of_ties_share_their_mean_rank(self):
        # ranks 1-2 tie at 1.5, ranks 3-5 tie at 4, rank 6 stands alone
        assert _average_ranks([7, 2, 7, 2, 9, 7]) == [4.0, 1.5, 4.0, 1.5, 6.0, 4.0]
        assert _average_ranks([5.0, 5.0, 5.0]) == [2.0, 2.0, 2.0]

    @pytest.mark.parametrize(
        "xs, ys",
        [([1, math.nan, 3], [1, 2, 4]), ([1, math.inf, 3, 4], [1, 2, 3, 5]), ([1, 2, 3, 4], [-math.inf, 2, 3, 5])],
        ids=["nan", "inf", "-inf"],
    )
    def test_non_finite_is_degenerate(self, xs, ys):
        with pytest.raises(DegenerateDataError):
            spearman(xs, ys)

    def test_monotone_transform_invariance(self):
        xs = [0.3, 5.0, 1.2, 9.4, 2.2]
        ys = [2, 4, 1, 5, 3]
        assert spearman([math.exp(x) for x in xs], ys) == pytest.approx(spearman(xs, ys), abs=1e-12)


NAN, INF = math.nan, math.inf
# series where the non-finite check and the zero-variance check could both refuse, and must refuse as the first does
REFUSED_SERIES = [
    [1.0, NAN, 1.0], [NAN, 1.0, 1.0], [1.0, 1.0, NAN], [NAN, NAN, NAN], [INF, INF, INF], [-INF, -INF, -INF],
    [INF, -INF, 1.0], [1.0, -INF, INF], [2.0, 2.0, INF], [-INF, 2.0, 2.0], [NAN, INF, -INF], [INF, NAN, 1.0],
    [5e-324, 5e-324, NAN], [1.7e308, -1.7e308, INF], [4.0, 4.0, 4.0],
]


def assert_refuses_as_the_two_checks(call, values, ranked=False):
    """`call` raises DegenerateDataError with the two-check longhand's message for `values`, or passes if it has none."""
    message = longhand_correlation_refusal(values, ranked)
    if message is None:
        call()
        return
    with pytest.raises(DegenerateDataError) as refused:
        call()
    assert str(refused.value) == message


class TestSeriesCheckOrder:
    """A non-finite value refuses a series before zero variance does, through every caller of the two checks."""

    @pytest.mark.parametrize("values", REFUSED_SERIES, ids=repr)
    def test_pearson_spearman_and_sweep(self, values):
        self.check(values)

    @given(st.lists(st.sampled_from([1.0, 2.0, NAN, INF, -INF]), min_size=3, max_size=6))
    def test_drawn_series(self, values):
        self.check(values)

    def check(self, values):
        pair = [float(i) for i in range(1, len(values) + 1)]
        assert_refuses_as_the_two_checks(lambda: pearson(values, pair), values)
        assert_refuses_as_the_two_checks(lambda: pearson(pair, values), values)
        assert_refuses_as_the_two_checks(lambda: spearman(values, pair), values, ranked=True)
        assert_refuses_as_the_two_checks(lambda: spearman(pair, values), values, ranked=True)
        profiles = [NetworkProfile.from_reuse(float(i), float(2 * i + 1)) for i in range(1, len(values) + 1)]
        assert_refuses_as_the_two_checks(lambda: alpha_sweep(profiles, values, step=0.5), values)


class TestAlphaGrid:
    def test_default_has_21_points(self):
        grid = alpha_grid(0.05)
        assert len(grid) == 21
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        assert grid[16] == pytest.approx(0.80, abs=1e-12)

    def test_coarse_grid(self):
        assert alpha_grid(0.5) == [0.0, 0.5, 1.0]

    def test_uneven_step_rejected(self):
        with pytest.raises(InputError):
            alpha_grid(0.3)

    @pytest.mark.parametrize("step", [5e-324, 1e-11, 1e-9, 5e-5])
    def test_step_below_the_grids_rounding_rejected(self, step, monkeypatch):
        # each divides [0, 1] evenly, into 2*10^4 to 10^11 alphas that repeat at four decimals; none may be built
        def bounded_range(count):
            assert count <= 10**6, f"alpha_grid({step}) would build {count} alphas"
            return range(count)

        monkeypatch.setattr(stats, "range", bounded_range, raising=False)
        with pytest.raises(InputError, match=f"^step must be at least 0.0001, got {step}$"):
            alpha_grid(step)


class TestSelectAlpha:
    def test_plateau_after_steady_climb(self):
        curve = curve_from_series([0.2, 0.5, 0.7, 0.84, 0.85, 0.85], step=0.2)
        assert select_alpha(curve, epsilon=0.005) == pytest.approx(0.8)

    def test_concave_curve_stops_at_peak(self):
        curve = curve_from_series([0.1, 0.3, 0.6, 0.5, 0.4], step=0.25)
        assert select_alpha(curve, epsilon=0.005) == pytest.approx(0.5)

    def test_constant_curve_selects_zero(self):
        curve = curve_from_series([0.7, 0.7, 0.7], step=0.5)
        assert select_alpha(curve, epsilon=0.005) == pytest.approx(0.0)

    def test_monotone_to_the_end_selects_argmax(self):
        curve = curve_from_series([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], step=0.2)
        assert select_alpha(curve, epsilon=0.005) == pytest.approx(1.0)

    def test_empty_curve_rejected(self):
        with pytest.raises(InputError):
            select_alpha(())

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_epsilon_rejected(self, epsilon):
        # NaN fails every `gain < epsilon` test and -1 nearly every one, so each used to select the argmax
        curve = curve_from_series([0.2, 0.5, 0.7, 0.84, 0.85, 0.85], step=0.2)
        with pytest.raises(InputError, match="epsilon"):
            select_alpha(curve, epsilon=epsilon)

    def test_zero_epsilon_accepted(self):
        curve = curve_from_series([0.2, 0.5, 0.7, 0.84, 0.85, 0.85], step=0.2)
        assert select_alpha(curve, epsilon=0.0) == pytest.approx(0.8)

    @pytest.mark.parametrize("r_values", [[math.nan], [0.2, math.nan, 0.7], [0.2, math.inf], [-math.inf, 0.5]])
    def test_non_finite_r_p_rejected(self, r_values):
        # NaN matched no argmax, which ended in a bare StopIteration; inf was selected as a plateau
        with pytest.raises(InputError, match="^r_p at alpha .* must be a finite number, got "):
            select_alpha(curve_from_series(r_values, step=0.5))


class TestAlphaSweep:
    # mixing weights 0.6/0.4 generate the efficiencies, so r_p(0.6) = 1
    RWS = [38, 39, 27, 5, 16]
    RAS = [25, 287, 70, 150, 216]

    def profiles(self):
        return [NetworkProfile.from_reuse(rw, ra) for rw, ra in zip(self.RWS, self.RAS)]

    def efficiencies(self):
        return [0.25 * (0.6 * ra + 0.4 * rw) for rw, ra in zip(self.RWS, self.RAS)]

    def test_exact_recovery_of_mixing_weight(self):
        curve = alpha_sweep(self.profiles(), self.efficiencies(), step=0.2)
        assert curve.selected_alpha == pytest.approx(0.6)
        at_06 = next(p for p in curve.points if p.alpha == pytest.approx(0.6))
        assert at_06.r_p == pytest.approx(1.0, abs=1e-12)

    def test_curve_covers_whole_grid(self):
        curve = alpha_sweep(self.profiles(), self.efficiencies(), step=0.2)
        assert [p.alpha for p in curve.points] == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]

    def test_selection_rule_recorded(self):
        curve = alpha_sweep(self.profiles(), self.efficiencies(), step=0.2, epsilon=0.01)
        assert curve.selection_rule == {"rule": "plateau", "epsilon": 0.01}

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InputError):
            alpha_sweep(self.profiles(), [1.0, 2.0])

    def test_too_few_networks_rejected(self):
        with pytest.raises(InputError):
            alpha_sweep(self.profiles()[:2], self.efficiencies()[:2])

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_epsilon_rejected(self, epsilon):
        with pytest.raises(InputError, match="epsilon"):
            alpha_sweep(self.profiles(), self.efficiencies(), step=0.2, epsilon=epsilon)


# a small pool makes DI and efficiency tie; wide-range floats almost never tie
SWEEP_VALUES = (st.sampled_from([1.0, 2.0, 3.0, 5.0, 8.0]), st.floats(min_value=1e-100, max_value=1e100))


@st.composite
def sweep_inputs(draw):
    """(weight_reuse, activation_reuse) pairs and matched efficiencies, each from one source."""
    size = draw(st.integers(min_value=3, max_value=25))
    ratio, efficiency = draw(st.sampled_from(SWEEP_VALUES)), draw(st.sampled_from(SWEEP_VALUES))
    pairs = draw(st.lists(st.tuples(ratio, ratio), min_size=size, max_size=size))
    return pairs, draw(st.lists(efficiency, min_size=size, max_size=size))


class TestAlphaSweepIsExact:
    @given(sweep_inputs())
    # DI of (1, 3) and (3, 1) ties at alpha 0.5 only, so one sweep ranks both with and without ties
    @example(inputs=([(1.0, 3.0), (3.0, 1.0), (5.0, 6.0)], [1.0, 2.0, 3.0]))
    def test_every_point_is_the_standalone_correlation(self, inputs):
        pairs, efficiencies = inputs
        profiles = [NetworkProfile.from_reuse(rw, ra) for rw, ra in pairs]
        try:
            curve = alpha_sweep(profiles, efficiencies, step=0.05)
        except DegenerateDataError:
            # a constant series at some alpha: the standalone functions refuse it too
            with pytest.raises(DegenerateDataError):
                for alpha in alpha_grid(0.05):
                    dis = [weighted_intensity(p, alpha) for p in profiles]
                    pearson(dis, efficiencies)
                    spearman(dis, efficiencies)
            return
        for point in curve.points:
            dis = [weighted_intensity(p, point.alpha) for p in profiles]
            assert point.r_p == pearson(dis, efficiencies)
            assert point.r_s == spearman(dis, efficiencies)


class TestFisherCI:
    def test_hand_value_95(self):
        ci = fisher_ci(0.85, 25, level=0.95)
        assert ci.lower == pytest.approx(0.68, abs=0.005)
        assert ci.upper == pytest.approx(0.93, abs=0.005)

    def test_hand_value_99(self):
        ci = fisher_ci(0.85, 25, level=0.99)
        assert ci.lower == pytest.approx(0.61, abs=0.005)
        assert ci.upper == pytest.approx(0.95, abs=0.005)

    def test_width_property(self):
        # mapped back to Z space, the interval is exactly fisher_z_width wide
        ci = fisher_ci(0.7, 30)
        assert math.atanh(ci.upper) - math.atanh(ci.lower) == pytest.approx(fisher_z_width(30))

    def test_interval_contains_r(self):
        for r in (-0.9, -0.2, 0.0, 0.5, 0.99):
            ci = fisher_ci(r, 12)
            assert ci.lower < r < ci.upper

    def test_width_shrinks_with_n(self):
        widths = [ci.upper - ci.lower for ci in (fisher_ci(0.8, n) for n in (5, 10, 40, 200))]
        assert widths == sorted(widths, reverse=True)

    def test_99_is_wider_than_95(self):
        wide, narrow = fisher_ci(0.6, 20, 0.99), fisher_ci(0.6, 20, 0.95)
        assert wide.upper - wide.lower > narrow.upper - narrow.lower

    def test_invalid_inputs_rejected(self):
        with pytest.raises(InputError):
            fisher_ci(0.5, 25, level=0.90)
        with pytest.raises(InputError):
            fisher_ci(1.0, 25)
        with pytest.raises(InputError):
            fisher_ci(0.5, 3)

    @pytest.mark.parametrize("n", [4.5, 25.0, True])
    def test_n_that_is_not_an_integer_rejected(self, n):
        with pytest.raises(InputError, match="^n must be an integer >= 4, got "):
            fisher_ci(0.5, n)

    @given(st.floats(min_value=-0.99, max_value=0.99), st.integers(min_value=4, max_value=500))
    def test_z_space_width_is_invariant_in_r(self, r, n):
        ci = fisher_ci(r, n)
        z_width = math.atanh(ci.upper) - math.atanh(ci.lower)
        assert z_width == pytest.approx(fisher_z_width(n, 0.95), rel=1e-9)

    @given(
        st.floats(min_value=-0.999, max_value=0.999),
        st.integers(min_value=4, max_value=100_000),
        st.sampled_from([0.95, 0.99]),
    )
    @example(0.85, 25, 0.95)
    @example(-0.5, 4, 0.99)
    def test_bounds_equal_the_longhand_interval_exactly(self, r, n, level):
        ci = fisher_ci(r, n, level)
        assert (ci.lower, ci.upper) == longhand_fisher_ci(r, n, level)


class TestSampleSizePlanning:
    def test_z_width_at_25(self):
        assert fisher_z_width(25, 0.95) == pytest.approx(0.83575, abs=1e-5)

    # the planned count is the smallest n whose fisher_z_width fits the budget (tests.oracles.longhand_min_sample_size)
    def test_min_size_95_unit_width(self):
        assert fisher_z_width(19, 0.95) <= 1.0 < fisher_z_width(18, 0.95)

    def test_min_size_99_unit_width(self):
        assert fisher_z_width(30, 0.99) <= 1.0 < fisher_z_width(29, 0.99)

    def test_result_is_tight(self):
        for level, width in ((0.95, 1.0), (0.99, 1.0), (0.95, 0.5), (0.99, 0.25)):
            n = longhand_min_sample_size(level, width)
            assert fisher_z_width(n, level) <= width
            assert n == 4 or fisher_z_width(n - 1, level) > width

    def test_exact_boundary_width(self):
        # a budget equal to the achievable width at n = 25 must not overshoot
        budget = fisher_z_width(25, 0.95)
        assert longhand_min_sample_size(0.95, budget) == 25

    @given(st.floats(min_value=0.1, max_value=10.0), st.sampled_from([0.95, 0.99]))
    @example(1.0, 0.95)
    @example(1.0, 0.99)
    @example(2 * 1.96 / math.sqrt(22), 0.95)  # the width at n = 25 exactly
    def test_equals_the_longhand_search_exactly(self, max_z_width, level):
        n = longhand_min_sample_size(level, max_z_width)
        for m in range(max(4, n - 1), n + 2):
            assert fisher_z_width(m, level) == 2 * FISHER_Z_CRITICAL[level] / math.sqrt(m - 3)
