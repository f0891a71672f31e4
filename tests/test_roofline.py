import math

import pytest
from hypothesis import given, strategies as st

from dnnreuse.errors import InputError
from dnnreuse.roofline import (
    Bound,
    HardwareSpec,
    attainable_throughput,
    classify,
    load_hardware_spec,
    roofline_points,
)

P4000 = HardwareSpec(name="P4000", peak_throughput=5.2e12, peak_bandwidth=243e9)
P100 = HardwareSpec(name="P100", peak_throughput=9.3e12, peak_bandwidth=549e9)


class TestHardwareSpec:
    def test_cmr(self):
        assert P4000.cmr == pytest.approx(21.399, abs=0.001)
        assert P100.cmr == pytest.approx(16.94, abs=0.01)

    def test_nonpositive_peaks_rejected(self):
        with pytest.raises(InputError):
            HardwareSpec(name="x", peak_throughput=0, peak_bandwidth=1)
        with pytest.raises(InputError):
            HardwareSpec(name="x", peak_throughput=1, peak_bandwidth=-2)

    def test_load_from_yaml(self, hardware_dir):
        hw = load_hardware_spec((hardware_dir / "p4000.yaml").read_text())
        assert hw.name == "P4000"
        assert hw.peak_throughput == pytest.approx(5.2e12)
        assert hw.peak_bandwidth == pytest.approx(243e9)

    def test_load_rejects_missing_field(self):
        with pytest.raises(InputError, match="missing"):
            load_hardware_spec("name: x\npeak_flops: 1.0e12\n")

    def test_load_rejects_unknown_field(self):
        with pytest.raises(InputError, match="unknown"):
            load_hardware_spec(
                "name: x\npeak_flops: 1.0e12\npeak_bandwidth_bytes_per_s: 1.0e11\ncores: 3584\n"
            )

    def test_load_rejects_stated_cmr(self):
        with pytest.raises(InputError, match="derived"):
            load_hardware_spec(
                "name: x\npeak_flops: 1.0e12\npeak_bandwidth_bytes_per_s: 1.0e11\ncmr: 10\n"
            )

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf", "1" + "0" * 400])
    def test_load_rejects_non_finite_peaks(self, value):
        with pytest.raises(InputError, match="finite"):
            load_hardware_spec(f"name: x\npeak_flops: {value}\npeak_bandwidth_bytes_per_s: 1.0e11\n")

    def test_load_json_spec(self):
        # JSON reads 9.3e12 as a float; YAML 1.1 would read it as a string
        hw = load_hardware_spec('{"name": "x", "peak_flops": 9.3e12, "peak_bandwidth_bytes_per_s": 549e9}')
        assert (hw.peak_throughput, hw.peak_bandwidth) == (9.3e12, 549e9)
        with pytest.raises(InputError, match="finite"):
            load_hardware_spec("name: x\npeak_flops: 9.3e12\npeak_bandwidth_bytes_per_s: 549e9\n")

    @pytest.mark.parametrize(
        "value, suggestion", [("9.3e12", "9.3e+12"), ("1e12", "1.0e+12"), ("2E-3", "2.0e-3"), ("'9.3e12'", "9.3e+12")]
    )
    def test_exponent_read_as_text_gets_a_hint(self, value, suggestion):
        # YAML 1.1 reads an exponent number as a float only with a dot and a signed exponent
        with pytest.raises(InputError) as info:
            load_hardware_spec(f"name: x\npeak_flops: {value}\npeak_bandwidth_bytes_per_s: 1.0e+11\n")
        assert str(info.value) == (
            f"peak_flops must be a finite number, got '{value.strip(chr(39))}'; "
            f"YAML 1.1 reads that form as text, so write {suggestion}"
        )

    @pytest.mark.parametrize("value", ["abc", "'1.5'", "'nan'", "9.3e12x"])
    def test_other_text_keeps_the_plain_message(self, value):
        with pytest.raises(InputError, match=r"^peak_bandwidth_bytes_per_s must be a finite number, got '[^']*'$"):
            load_hardware_spec(f"name: x\npeak_flops: 1.0e+12\npeak_bandwidth_bytes_per_s: {value}\n")

    def test_load_reports_syntax_position(self):
        with pytest.raises(InputError, match=r"^syntax error at line 3, column 1: "):
            load_hardware_spec("name: x\npeak_flops: [1.0e+12\n")

    @pytest.mark.parametrize("text", ["[" * 2000 + "]" * 2000, '{"name": ' * 2000 + "1" + "}" * 2000])
    def test_load_rejects_deep_nesting(self, text):
        with pytest.raises(InputError, match="nests too deeply"):
            load_hardware_spec(text)

    def test_load_rejects_bad_values(self):
        with pytest.raises(InputError):
            load_hardware_spec("name: x\npeak_flops: -1\npeak_bandwidth_bytes_per_s: 1.0e11\n")
        with pytest.raises(InputError):
            load_hardware_spec("name: ''\npeak_flops: 1.0e12\npeak_bandwidth_bytes_per_s: 1.0e11\n")
        with pytest.raises(InputError):
            load_hardware_spec("- just\n- a\n- list\n")


class TestClassify:
    def test_low_per_element_work_is_memory_bound(self):
        assert classify(P4000, 11.48) is Bound.MEMORY
        assert classify(P100, 11.48) is Bound.MEMORY

    def test_high_weighted_intensity_is_compute_bound(self):
        assert classify(P4000, 72.89) is Bound.COMPUTE
        assert classify(P100, 72.89) is Bound.COMPUTE

    def test_flip_between_metrics_on_depthwise_network(self):
        # unweighted 23.37 clears both ridges, weighted 12.43 clears neither
        for hw in (P4000, P100):
            assert classify(hw, 23.37) is Bound.COMPUTE
            assert classify(hw, 12.43) is Bound.MEMORY

    def test_ridge_point_is_compute_bound(self):
        assert classify(P4000, P4000.cmr) is Bound.COMPUTE
        assert classify(P4000, P4000.cmr * 0.999) is Bound.MEMORY

    def test_converted_mode_rescales(self):
        # 11.48 MACs/element * 2 flop / 4 bytes = 5.74 flops/byte
        assert classify(P100, 11.48, mode="converted") is Bound.MEMORY
        # single-byte elements double the effective intensity
        assert classify(
            P4000, 21.0, mode="converted", bytes_per_element=1.0, flops_per_mac=2.0
        ) is Bound.COMPUTE

    def test_bad_inputs_rejected(self):
        with pytest.raises(InputError):
            classify(P4000, 0.0)
        with pytest.raises(InputError):
            classify(P4000, 10.0, mode="rooftop")
        with pytest.raises(InputError):
            classify(P4000, 10.0, bytes_per_element=0)

    @pytest.mark.parametrize("mode", ["raw", "converted"])
    @pytest.mark.parametrize("factor", ["bytes_per_element", "flops_per_mac"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_factors_rejected(self, mode, factor, value):
        # NaN passes the `<= 0` check, so it used to turn into a verdict
        with pytest.raises(InputError, match=f"{factor} must be a finite number"):
            classify(P100, 10.0, mode=mode, **{factor: value})
        with pytest.raises(InputError, match=f"{factor} must be a finite number"):
            attainable_throughput(P100, 10.0, mode=mode, **{factor: value})

    @pytest.mark.parametrize("bytes_per_element, flops_per_mac", [(1e-300, 1e300), (1e300, 1e-300), (1e-308, 2.0)])
    def test_conversion_outside_float_range_rejected(self, bytes_per_element, flops_per_mac):
        with pytest.raises(InputError, match="float range"):
            roofline_points(
                P100, [("a", 10.0)], mode="converted", bytes_per_element=bytes_per_element, flops_per_mac=flops_per_mac
            )


class TestAttainable:
    def test_memory_bound_value(self):
        assert attainable_throughput(P4000, 11.48) == pytest.approx(11.48 * 243e9)
        assert attainable_throughput(P4000, 11.48) < 5.2e12

    def test_compute_bound_saturates_at_peak(self):
        assert attainable_throughput(P4000, 72.89) == pytest.approx(5.2e12)

    def test_half_ridge_gives_half_peak(self):
        assert attainable_throughput(P4000, P4000.cmr / 2) == pytest.approx(5.2e12 / 2)

    def test_converted_mode_value(self):
        got = attainable_throughput(P100, 11.48, mode="converted")
        assert got == pytest.approx(11.48 * 0.5 * 549e9)

    @given(st.floats(min_value=1e-3, max_value=1e4))
    def test_peak_reached_iff_compute_bound(self, intensity):
        at_peak = attainable_throughput(P100, intensity) == P100.peak_throughput
        assert at_peak == (classify(P100, intensity) is Bound.COMPUTE)

    @given(st.floats(min_value=1e-3, max_value=1e4), st.floats(min_value=1.0, max_value=10.0))
    def test_monotone_in_intensity(self, intensity, factor):
        lower = attainable_throughput(P4000, intensity)
        higher = attainable_throughput(P4000, intensity * factor)
        assert higher >= lower


class TestChart:
    POINTS = [("alexnet", 11.48), ("vgg16", 92.55), ("mobilenet-v1", 23.37)]

    def test_points_carry_bounds_and_measured(self):
        chart = roofline_points(P4000, self.POINTS, measured={"alexnet": 1.1e12})
        by_label = {p.label: p for p in chart.points}
        assert by_label["alexnet"].bound is Bound.MEMORY
        assert by_label["vgg16"].bound is Bound.COMPUTE
        assert by_label["alexnet"].measured == pytest.approx(1.1e12)
        assert by_label["vgg16"].measured is None

    def test_envelope_continuous_at_ridge(self):
        chart = roofline_points(P4000, self.POINTS, envelope_points=16)
        assert len(chart.envelope) == 32
        slope_end = chart.envelope[15]
        roof_start = chart.envelope[16]
        assert slope_end[0] == pytest.approx(P4000.cmr, rel=1e-12)
        assert roof_start[0] == pytest.approx(P4000.cmr, rel=1e-12)
        assert slope_end[1] == pytest.approx(5.2e12, rel=1e-9)
        assert roof_start[1] == pytest.approx(5.2e12, rel=1e-9)

    def test_envelope_rises_then_flattens(self):
        chart = roofline_points(P4000, self.POINTS, envelope_points=8)
        ys = [y for _, y in chart.envelope]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(ys[:7], ys[1:8]))
        assert all(y == pytest.approx(5.2e12) for y in ys[8:])

    def test_envelope_spans_a_decade_past_the_points(self):
        chart = roofline_points(P4000, self.POINTS, envelope_points=4)
        xs = [x for x, _ in chart.envelope]
        assert min(xs) == pytest.approx(min(11.48, P4000.cmr) / 10)
        assert max(xs) == pytest.approx(92.55 * 10)

    def test_converted_mode_moves_the_ridge(self):
        chart = roofline_points(P100, self.POINTS, mode="converted", envelope_points=4)
        knee_x = chart.envelope[3][0]
        assert knee_x == pytest.approx(P100.cmr * 2.0, rel=1e-12)
        assert chart.envelope[3][1] == pytest.approx(9.3e12, rel=1e-9)

    def test_empty_points_rejected(self):
        with pytest.raises(InputError):
            roofline_points(P4000, [])

    def test_duplicate_label_rejected(self):
        # one label, two intensities: the chart could not tell the points apart
        with pytest.raises(InputError, match="'alexnet' is placed twice"):
            roofline_points(P4000, self.POINTS + [("alexnet", 11.47)])

    def test_axis_outside_float_range_rejected(self):
        # the ridge sits at 1e300 / 1e-300 = inf operations per byte
        hw = HardwareSpec(name="x", peak_throughput=1e300, peak_bandwidth=1e-300)
        with pytest.raises(InputError, match="float range"):
            roofline_points(hw, self.POINTS)

    def test_attainable_in_chart_matches_direct_call(self):
        chart = roofline_points(P100, self.POINTS)
        for p in chart.points:
            assert p.attainable == pytest.approx(attainable_throughput(P100, p.intensity))
