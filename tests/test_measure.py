"""Measurement CSV ingestion and energy efficiency."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from dnnreuse.errors import DegenerateDataError, InputError
from dnnreuse.measure import MeasurementRecord, energy_efficiency, load_measurements
from tests.oracles import longhand_measurements

HEADER = "model,device,batch,p_avg_w,i_t_ms,input_h,input_w,macs\n"
# the six number cells, batch to macs, each drawn as an accepted value or as one of the cells that test the checks
INT_CELLS = st.integers(1, 10**9).map(str)
FLOAT_CELLS = st.floats(min_value=5e-324, max_value=1e300).map(repr)
PLAIN_CELLS = (INT_CELLS, FLOAT_CELLS, FLOAT_CELLS, INT_CELLS, INT_CELLS, FLOAT_CELLS | st.just(""))
EDGE_CELLS = ("", "  ", "0", "-1", " -1 ", "1.5", " 4 ", "nan", "inf", "-inf", "1e999", "1e3", "9" * 400, "7" * 5000, "abc")


@st.composite
def measurement_rows(draw):
    """One to three rows of distinct models; in about half the rows, some number cells come from EDGE_CELLS."""
    rows = []
    for model in ("m0", "m1", "m2")[: draw(st.integers(1, 3))]:
        cells = [draw(plain) for plain in PLAIN_CELLS]
        if draw(st.booleans()):
            for column in draw(st.sets(st.sampled_from(range(6)), min_size=1)):
                cells[column] = draw(st.sampled_from(EDGE_CELLS))
        rows.append([model, "d", *cells])
    return rows


def assert_agrees_with_oracle(rows):
    """load_measurements gives longhand_measurements' records, with int and float cells, or its exact message."""
    text = HEADER + "".join(",".join(row) + "\n" for row in rows)
    expected, message = longhand_measurements(rows)
    if message is not None:
        with pytest.raises(InputError) as refused:
            load_measurements(text)
        assert str(refused.value) == message
        return
    records = load_measurements(text)
    assert records == expected
    for r in records:
        assert type(r.batch) is type(r.input_h) is type(r.input_w) is int
        assert type(r.p_avg_w) is type(r.i_t_ms) is float
        assert r.macs is None or type(r.macs) is float


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

    def test_batch_is_keyed_by_its_number_not_its_text(self):
        with pytest.raises(InputError, match=r"^row 3: duplicate \(model, device, batch\) key \('m', 'd', 4\)$"):
            load_measurements(HEADER + "m,d,4,1,1,8,8,\nm,d,04,2,2,8,8,\n")

    @settings(max_examples=300, deadline=None)
    @given(rows=measurement_rows())
    @example(rows=[["m0", "d", " 4 ", "1e3", "2.5", "8", "8", ""]])
    @example(rows=[["m0", "d", "9" * 400, "nan", "0", "1.5", "abc", "-1"]])
    def test_every_row_agrees_with_a_cell_by_cell_oracle(self, rows):
        assert_agrees_with_oracle(rows)

    @pytest.mark.parametrize("cell", EDGE_CELLS)
    def test_each_edge_cell_in_each_column_agrees_with_the_oracle(self, cell):
        for column in range(6):
            cells = ["3", "2.5", "7.25", "8", "8", "1000"]
            cells[column] = cell
            assert_agrees_with_oracle([["m", "d", *cells]])


class TestMeasurementRecord:
    def test_fields_cannot_be_assigned(self):
        r = MeasurementRecord("m", "d", 1, 4.0, 250.0, 8, 8)
        with pytest.raises(AttributeError):
            r.batch = 2
        with pytest.raises(AttributeError):
            r.macs = 1e9

    def test_positional_and_keyword_construction_agree(self):
        by_position = MeasurementRecord("m", "d", 1, 4.0, 250.0, 8, 8, 5e8)
        by_keyword = MeasurementRecord(
            model="m", device="d", batch=1, p_avg_w=4.0, i_t_ms=250.0, input_h=8, input_w=8, macs=5e8
        )
        assert by_position == by_keyword
        assert by_keyword.macs == 5e8

    def test_macs_defaults_to_none(self):
        assert MeasurementRecord("m", "d", 1, 4.0, 250.0, 8, 8).macs is None

    def test_equals_the_plain_tuple_of_its_fields(self):
        assert MeasurementRecord("m", "d", 1, 4.0, 250.0, 8, 8) == ("m", "d", 1, 4.0, 250.0, 8, 8, None)


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

    @pytest.mark.parametrize("p_avg_w, i_t_ms", [(1e-200, 1e-200), (50.0, 5e-324)])
    def test_energy_underflowing_to_zero_rejected(self, p_avg_w, i_t_ms):
        # both cells pass the loader, yet p_avg_w * i_t_ms / 1000 rounds to 0 J
        r = load_measurements(f"{HEADER}m,d,1,{p_avg_w!r},{i_t_ms!r},8,8,1e9\n")[0]
        with pytest.raises(InputError, match=r"^record 'm': p_avg_w \* i_t_ms \(.*\) underflows to 0 J; efficiency undefined$"):
            energy_efficiency(r)

    @pytest.mark.parametrize("p_avg_w, i_t_ms, macs", [(1e-300, 1e-10, 1e9), (1e-200, 1e-100, 1e9), (1.0, 1.0, 1e308)])
    def test_efficiency_overflowing_to_inf_is_degenerate(self, p_avg_w, i_t_ms, macs):
        # the cells and the energy are valid, yet batch * macs / energy exceeds float range
        r = MeasurementRecord("m", "d", 2, p_avg_w, i_t_ms, 8, 8, macs=macs)
        with pytest.raises(DegenerateDataError, match=r"^record 'm': batch \* macs / energy \(2 \* .* J\) overflows to inf; efficiency undefined$"):
            energy_efficiency(r)

    @pytest.mark.parametrize(
        "record, macs",
        [
            (MeasurementRecord("m", "d", 2, 10.0, 100.0, 8, 8), math.nan),
            (MeasurementRecord("m", "d", 2, 10.0, 100.0, 8, 8), -5.0),
            (MeasurementRecord("m", "d", 2, 10.0, 100.0, 8, 8), math.inf),
            (MeasurementRecord("m", "d", 2, math.nan, 100.0, 8, 8, macs=1e9), None),
            (MeasurementRecord("m", "d", 2, -10.0, -100.0, 8, 8, macs=1e9), None),
            (MeasurementRecord("m", "d", 0, 10.0, 100.0, 8, 8, macs=1e9), None),
        ],
    )
    def test_count_or_record_that_skipped_the_loader_is_refused(self, record, macs):
        # a given count, or a record built by hand, has not been through load_measurements' checks
        with pytest.raises(InputError, match=r"^record 'm': batch, p_avg_w, i_t_ms and macs must be finite and positive \(macs may be 0\), got "):
            energy_efficiency(record, macs)

    @settings(max_examples=200, deadline=None)
    @given(b=st.integers(1, 32), macs=st.floats(1e6, 1e12))
    def test_invariant_under_batch_doubling_with_macs_halving(self, b, macs):
        r1 = MeasurementRecord("m", "d", b, 10.0, 100.0, 8, 8, macs=macs)
        r2 = MeasurementRecord("m", "d", 2 * b, 10.0, 100.0, 8, 8, macs=macs / 2)
        assert energy_efficiency(r1) == pytest.approx(energy_efficiency(r2), rel=1e-12)
