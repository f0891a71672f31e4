"""Measurement CSV ingestion, power averaging, and energy metrics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from dnnreuse.errors import InputError
from dnnreuse.measure import (
    MeasurementRecord,
    average_power,
    energy_efficiency,
    energy_metrics,
    epp,
    load_measurements,
    load_power_samples,
    serialize_measurements,
)

HEADER = "model,device,batch,p_avg_w,i_t_ms,input_h,input_w,macs\n"


class TestLoadMeasurements:
    def test_row_without_macs(self):
        records = load_measurements(HEADER + "AlexNet,P100,4,50.8,2.92,224,224,\n")
        (r,) = records
        assert r == MeasurementRecord("AlexNet", "P100", 4, 50.8, 2.92, 224, 224, None)

    def test_row_with_macs(self):
        (r,) = load_measurements(HEADER + "tiny,gpu0,1,10,5,8,8,1000000\n")
        assert r.macs == 1e6

    @pytest.mark.parametrize(
        "row", ["x,P100,1,nan,2.0,224,224,inf", "x,P100,1,1.0,inf,224,224,", "x,P100,1,1.0,2.0,224,224,-inf"]
    )
    def test_non_finite_values_rejected(self, row):
        with pytest.raises(InputError, match="finite"):
            load_measurements(HEADER + row + "\n")

    def test_non_positive_power_rejected(self):
        with pytest.raises(InputError, match="p_avg_w"):
            load_measurements(HEADER + "m,d,1,0,5,8,8,\n")

    def test_missing_column_rejected(self):
        with pytest.raises(InputError, match="missing"):
            load_measurements("model,device,batch,p_avg_w,i_t_ms,input_h,input_w\nm,d,1,1,1,1,1\n")

    def test_unexpected_column_rejected(self):
        with pytest.raises(InputError, match="unexpected"):
            load_measurements(HEADER.strip() + ",comment\nm,d,1,1,1,1,1,,hi\n")

    def test_duplicate_key_rejected(self):
        text = HEADER + "m,d,1,1,1,8,8,\nm,d,1,2,2,8,8,\n"
        with pytest.raises(InputError, match="duplicate"):
            load_measurements(text)

    def test_same_model_on_two_devices_is_fine(self):
        text = HEADER + "m,d0,1,1,1,8,8,\nm,d1,1,2,2,8,8,\n"
        assert len(load_measurements(text)) == 2

    def test_round_trip(self):
        text = HEADER + "AlexNet,P100,4,50.8,2.92,224,224,\nNiN,P4000,1,59.0,2.3,224,224,1100000000\n"
        records = load_measurements(text)
        assert load_measurements(serialize_measurements(records)) == records


class TestAveragePower:
    def test_ramp_is_discarded(self):
        assert average_power([31, 31, 51, 51, 51]) == pytest.approx(51.0)

    def test_idle_subtraction(self):
        assert average_power([31, 31, 51, 51, 51], idle=31, subtract_idle=True) == pytest.approx(20.0)

    def test_constant_series(self):
        assert average_power([40.0] * 10) == pytest.approx(40.0)
        assert average_power([40.0] * 10, idle=0, subtract_idle=True) == pytest.approx(40.0)

    def test_single_sample(self):
        assert average_power([7.5]) == 7.5

    def test_empty_series_rejected(self):
        with pytest.raises(InputError):
            average_power([])

    def test_trace_csv(self):
        watts = load_power_samples("t_ms,watts\n0,31\n100,31\n200,51\n300,51\n400,51\n")
        assert average_power(watts) == pytest.approx(51.0)


class TestEpp:
    def test_batched_reference_row(self):
        r = MeasurementRecord("AlexNet", "P100", 4, 50.8, 2.92, 224, 224)
        assert epp(r) == pytest.approx(50.8 * 0.00292 / 50176, rel=1e-9)
        assert epp(r) == pytest.approx(2.956e-6, rel=1e-3)
        assert epp(r, per_frame=True) == pytest.approx(7.391e-7, rel=1e-3)

    def test_unit_case(self):
        r = MeasurementRecord("m", "d", 1, 1.0, 1000.0, 1, 1)
        assert epp(r) == pytest.approx(1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.floats(0.1, 500),
        it=st.floats(0.1, 1e4),
        b=st.integers(1, 64),
        side=st.integers(1, 512),
    )
    def test_energy_accounting_is_exact(self, p, it, b, side):
        r = MeasurementRecord("m", "d", b, p, it, side, side)
        total_joules = epp(r, per_frame=True) * b * r.pixels()
        assert total_joules == pytest.approx(p * it / 1000.0, rel=1e-9)


class TestEnergyEfficiency:
    def test_simple_arithmetic(self):
        r = MeasurementRecord("m", "d", 2, 10.0, 100.0, 8, 8, macs=1e9)
        assert energy_efficiency(r) == pytest.approx(2e9)

    def test_definition_at_batch_one(self):
        r = MeasurementRecord("m", "d", 1, 4.0, 250.0, 8, 8, macs=5e8)
        assert energy_efficiency(r) == pytest.approx(5e8 / 1.0)

    def test_missing_macs_rejected(self):
        r = MeasurementRecord("m", "d", 1, 4.0, 250.0, 8, 8)
        with pytest.raises(InputError, match="MAC"):
            energy_efficiency(r)

    def test_a_count_given_stands_in_for_the_records_own(self):
        r = MeasurementRecord("m", "d", 2, 10.0, 100.0, 8, 8)
        assert energy_efficiency(r, 1e9) == energy_efficiency(MeasurementRecord("m", "d", 2, 10.0, 100.0, 8, 8, macs=1e9))
        with pytest.raises(InputError, match="^record 'm' has no MAC count; efficiency undefined$"):
            energy_efficiency(r, None)

    @settings(max_examples=200, deadline=None)
    @given(b=st.integers(1, 32), macs=st.floats(1e6, 1e12))
    def test_invariant_under_batch_doubling_with_macs_halving(self, b, macs):
        r1 = MeasurementRecord("m", "d", b, 10.0, 100.0, 8, 8, macs=macs)
        r2 = MeasurementRecord("m", "d", 2 * b, 10.0, 100.0, 8, 8, macs=macs / 2)
        assert energy_efficiency(r1) == pytest.approx(energy_efficiency(r2), rel=1e-12)

    def test_bundle(self):
        r = MeasurementRecord("m", "d", 2, 10.0, 100.0, 8, 8, macs=1e9)
        bundle = energy_metrics(r)
        assert bundle.efficiency == energy_efficiency(r)
        assert bundle.epp == epp(r)
