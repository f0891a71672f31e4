"""CSV tables through the one row reader: ragged rows, and bad numbers in every numeric column.

Every table the package reads (measurements, both profile schemas
and the `stats` table) goes through
`dnnreuse.document.read_rows`. A data row must be exactly as wide as
the header. Any malformed number must end in exit 2 with an `error:`
line, never in a printed result (exit 0) or a traceback (exit 1).
"""

from __future__ import annotations

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from dnnreuse.cli import main
from dnnreuse.document import read_rows
from dnnreuse.errors import InputError
from dnnreuse.measure import MEASUREMENT_COLUMNS, load_measurements
from dnnreuse.netprofile import load_profiles

from conftest import FIXTURES, NEGATIVE, assert_exit_2

HW = str(FIXTURES / "hardware" / "p100.yaml")
MEASUREMENTS = [",".join(MEASUREMENT_COLUMNS)] + [
    f"m{i},P100,1,{40 + 5 * i},{2 + i}.5,224,224,{'' if i % 2 else 10**8 * (i + 1)}" for i in range(5)
]
COUNT_PROFILES = ["model,macs,weights,activations"] + [f"m{i},{10**8 * (i + 1)},{10**6 * (i + 3)},{10**6 * (7 - i)}" for i in range(5)]
RATIO_PROFILES = ["model,mc_over_w,mc_over_a,macs"] + [f"m{i},{20 + 7 * i},{90 - 11 * i},{10**8 * (i + 1)}" for i in range(5)]
TABLES = {"measurements": MEASUREMENTS, "count": COUNT_PROFILES, "ratio": RATIO_PROFILES}
# the same tables with every cell a number, for `stats`
FILLED = {**TABLES, "measurements": [line + "1000" if line.endswith(",") else line for line in MEASUREMENTS]}
# cells that may be blank: a measurement's own MAC count, and a ratio-form profile's forward-pass count
BLANK_ALLOWED = {("measurements", "macs"), ("ratio", "macs")}


def text(lines) -> str:
    return "\n".join(lines) + "\n"


class TestReadRows:
    def test_blank_lines_are_skipped_and_rows_numbered_from_2(self):
        header, rows = read_rows("a,b\n\n1,2\n\n\n3,4\n")
        assert header == ["a", "b"]
        assert list(rows) == [(2, ["1", "2"]), (3, ["3", "4"])]

    def test_empty_text_has_an_empty_header_and_no_rows(self):
        header, rows = read_rows("")
        assert header == [] and list(rows) == []

    @pytest.mark.parametrize("row, width", [("1,2,3", 3), ("1", 1), (",,", 3)])
    def test_a_row_of_another_width_is_refused_where_it_is_reached(self, row, width):
        header, rows = read_rows(f"a,b\n1,2\n\n{row}\n")
        assert next(rows) == (2, ["1", "2"])
        with pytest.raises(InputError, match=f"^row 3: expected 2 fields, got {width}$"):
            next(rows)


    def test_a_header_the_csv_module_cannot_read_is_refused_at_once(self):
        with pytest.raises(InputError, match="^row 1: field larger than field limit"):
            read_rows("a" * 200_000 + ",b\n1,2\n")

    def test_a_row_the_csv_module_cannot_read_is_refused_where_it_is_reached(self):
        header, rows = read_rows("a,b\n1,2\n\n" + "1" * 200_000 + ",2\n3,4\n")
        assert next(rows) == (2, ["1", "2"])
        with pytest.raises(InputError, match="^row 3: field larger than field limit"):
            next(rows)

    @pytest.mark.parametrize("load", [load_measurements, load_profiles])
    def test_every_loader_raises_input_error_for_what_the_csv_module_cannot_read(self, load):
        with pytest.raises(InputError, match="^row 1: field larger than field limit"):
            load("x" * 200_000 + "\n")


class TestRaggedRows:
    """A row wider than the header used to lose its extra fields; a short one failed on None."""

    @pytest.mark.parametrize(
        "row, got",
        [("m,d,1,1,1,1,1,5,extra", 9), ("m,d,1,1,1,1,1", 7), ("m,d,1,1,1,1", 6)],
    )
    def test_measurement_row(self, row, got):
        with pytest.raises(InputError, match=f"^row 2: expected 8 fields, got {got}$"):
            load_measurements(text([MEASUREMENTS[0], row]))

    @pytest.mark.parametrize("table", ["count", "ratio"])
    @pytest.mark.parametrize("extra, got", [(",9", 5), (None, 3)])
    def test_profile_row(self, table, extra, got):
        row = TABLES[table][2]
        row = row + extra if extra else row.rsplit(",", 1)[0]
        with pytest.raises(InputError, match=f"^row 3: expected 4 fields, got {got}$"):
            load_profiles(text([*TABLES[table][:2], row]))

    def test_calibrate_exits_2_naming_the_file_and_row(self, tmp_path):
        profiles, measurements = tmp_path / "p.csv", tmp_path / "m.csv"
        profiles.write_text(text(RATIO_PROFILES))
        measurements.write_text(text([*MEASUREMENTS, "m9,P100,1,1,1,1,1,5,extra"]))
        result = CliRunner().invoke(main, ["calibrate", "--profiles", str(profiles), "--measurements", str(measurements)])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr == f"error: {measurements}: row 7: expected 8 fields, got 9\n"

    def test_stats_exits_2_naming_the_file_and_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n2,3\n3\n4,4\n")
        result = CliRunner().invoke(main, ["stats", str(path), "--x", "a", "--y", "b"])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {path}: row 4: expected 2 fields, got 1\n"

    def test_cell_over_the_csv_field_limit_exits_2_naming_the_file_and_row(self, tmp_path):
        # the csv module refuses a field over 131,072 characters; that used to end in a traceback (exit 1)
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n\n" + "1" * 200_000 + ",2\n3,4\n")
        result = CliRunner().invoke(main, ["stats", str(path), "--x", "a", "--y", "b"])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(f"error: {path}: row 3: field larger than field limit")

    def test_bundled_tables_have_every_row_at_header_width(self):
        for name in ("measurements.csv", "reference_metrics.csv"):
            header, rows = read_rows((FIXTURES / name).read_text(encoding="utf-8"))
            assert all(len(fields) == len(header) for _, fields in rows)


# out of float range: inf as a float, and an integer too large to become one
HUGE = st.sampled_from(["1e999", "-1e999", "1" + "0" * 400, "9" * 320 + ".5"])
NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "-Infinity"])


def numeric_columns(table: str) -> list[str]:
    return [c for c in TABLES[table][0].split(",") if c not in ("model", "device")]


@st.composite
def bad_cell(draw, values):
    """(table, column, row, value): one numeric cell of one table replaced by `values`."""
    table = draw(st.sampled_from(sorted(TABLES)))
    column = draw(st.sampled_from(numeric_columns(table)))
    row = draw(st.integers(1, len(TABLES[table]) - 1))
    blank = st.nothing() if (table, column) in BLANK_ALLOWED else st.just("")
    return table, column, row, draw(st.one_of(values, blank))


def with_cell(table: str, column: str, row: int, value: str, tables=TABLES) -> str:
    lines = list(tables[table])
    fields = lines[row].split(",")
    fields[lines[0].split(",").index(column)] = value
    lines[row] = ",".join(fields)
    return text(lines)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=bad_cell(st.one_of(NON_FINITE, NEGATIVE, HUGE)))
def test_bad_number_in_any_numeric_column_exits_2(tmp_path, case):
    """calibrate and roofline read a profiles table and a measurements table; one bad cell sinks both."""
    table, column, row, value = case
    tables = {"measurements": text(MEASUREMENTS), "profiles": text(RATIO_PROFILES)}
    tables["measurements" if table == "measurements" else "profiles"] = with_cell(table, column, row, value)
    for name, content in tables.items():
        (tmp_path / f"{name}.csv").write_text(content)
    inputs = ["--profiles", str(tmp_path / "profiles.csv"), "--measurements", str(tmp_path / "measurements.csv")]
    assert_exit_2(["calibrate", *inputs])
    assert_exit_2(["roofline", "--hw", HW, *inputs])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=bad_cell(st.one_of(NON_FINITE, HUGE)))
def test_bad_number_in_a_stats_column_exits_2(tmp_path, case):
    """A negative number is a valid `stats` cell, so only the other bad values are drawn here.

    Every other cell of the table is a number, so the drawn cell alone is at fault.
    """
    table, column, row, value = case
    path = tmp_path / "t.csv"
    path.write_text(with_cell(table, column, row, value, FILLED))
    other = next(c for c in numeric_columns(table) if c != column)
    assert_exit_2(["stats", str(path), "--x", column, "--y", other])
    assert_exit_2(["stats", str(path), "--x", other, "--y", column])
