"""Measurement CSV ingestion and energy efficiency."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from dnnreuse.errors import InputError
from dnnreuse.measure import MeasurementRecord, energy_efficiency, load_measurements

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
