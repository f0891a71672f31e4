"""Power/latency measurement ingestion and energy efficiency.

Measurements arrive as CSV with the exact header

    model,device,batch,p_avg_w,i_t_ms,input_h,input_w,macs

one row per (model, device, batch) observation; `macs` may be blank
when the analyzer supplies the count from a model document.
"""

from __future__ import annotations

from typing import NamedTuple

from .document import read_rows
from .errors import _FLOAT_MAX, DegenerateDataError, InputError, finite

MEASUREMENT_COLUMNS = ("model", "device", "batch", "p_avg_w", "i_t_ms", "input_h", "input_w", "macs")
# the number columns in header order, each with the type its cells convert to
_NUMBER_CASTS = (("batch", int), ("p_avg_w", float), ("i_t_ms", float), ("input_h", int), ("input_w", int), ("macs", float))


class MeasurementRecord(NamedTuple):
    """One observed (model, device, batch) run.

    A named tuple: immutable, built by position or by keyword, and equal
    to a plain tuple of the same values in field order.
    """

    model: str
    device: str
    batch: int
    p_avg_w: float
    i_t_ms: float
    input_h: int
    input_w: int
    macs: float | None = None


def _refuse(row: int, cells):
    """Raise the InputError of a refused row, for the first of its number cells, in column order, that fails.

    A blank macs is never reached: if it is the last cell, one before it fails.
    """
    for value, (column, cast) in zip(cells, _NUMBER_CASTS):
        try:
            parsed = finite(cast(value), column)
        except (TypeError, ValueError) as exc:
            raise InputError(f"row {row}: column {column!r} is not a finite number: {exc}") from None
        if parsed <= 0:
            raise InputError(f"row {row}: column {column!r} must be positive, got {value!r}")
    raise AssertionError(f"row {row} was refused, but each of its cells passes")


def load_measurements(text: str) -> list[MeasurementRecord]:
    """Parse a measurements CSV; rejects bad headers, values, and duplicate keys."""
    header, rows = read_rows(text)
    if tuple(header) != MEASUREMENT_COLUMNS:
        missing = set(MEASUREMENT_COLUMNS) - set(header)
        surplus = set(header) - set(MEASUREMENT_COLUMNS)
        detail = []
        if missing:
            detail.append(f"missing columns {sorted(missing)}")
        if surplus:
            detail.append(f"unexpected columns {sorted(surplus)}")
        raise InputError("measurements header mismatch: " + "; ".join(detail or ["wrong column order"]))

    records = []
    seen = set()
    new = tuple.__new__
    for i, (model, device, batch, p_avg_w, i_t_ms, input_h, input_w, macs) in rows:
        model, device, macs = model.strip(), device.strip(), macs.strip()
        if not model or not device:
            raise InputError(f"row {i}: model and device must be non-empty")
        # a row is accepted when every number lies in (0, float max], which NaN fails; only a refused
        # row goes cell by cell through _refuse, for the message of the first cell that fails.
        # These casts are _NUMBER_CASTS unrolled, in its order: a change to one is a change to both.
        try:
            b, p, t, h, w = int(batch), float(p_avg_w), float(i_t_ms), int(input_h), int(input_w)
            m = float(macs) if macs else None
            accepted = (
                0 < b <= _FLOAT_MAX
                and 0 < p <= _FLOAT_MAX
                and 0 < t <= _FLOAT_MAX
                and 0 < h <= _FLOAT_MAX
                and 0 < w <= _FLOAT_MAX
                and (m is None or 0 < m <= _FLOAT_MAX)
            )
        except ValueError:
            accepted = False
        if not accepted:
            _refuse(i, (batch, p_avg_w, i_t_ms, input_h, input_w, macs))
        key = (model, device, b)
        if key in seen:
            raise InputError(f"row {i}: duplicate (model, device, batch) key {key}")
        seen.add(key)
        records.append(new(MeasurementRecord, (model, device, b, p, t, h, w, m)))  # as MeasurementRecord._make builds it
    return records


def energy_efficiency(record: MeasurementRecord, macs: float | None = None) -> float:
    """MACs per joule: batch * macs / (P_avg * I_t), with the record's own MAC count unless `macs` is given."""
    if macs is None:
        macs = record.macs
    if macs is None:
        raise InputError(f"record {record.model!r} has no MAC count; efficiency undefined")
    batch, p_avg_w, i_t_ms = record.batch, record.p_avg_w, record.i_t_ms
    # a given count, or a record built by hand, has not been through load_measurements' checks; NaN fails each test
    if not (0 < batch <= _FLOAT_MAX and 0 < p_avg_w <= _FLOAT_MAX and 0 < i_t_ms <= _FLOAT_MAX and 0 <= macs <= _FLOAT_MAX):
        raise InputError(f"record {record.model!r}: batch, p_avg_w, i_t_ms and macs must be finite and positive (macs may be 0), got {(batch, p_avg_w, i_t_ms, macs)}")
    joules = p_avg_w * i_t_ms / 1000.0
    if joules == 0.0:  # both factors are positive, but their product can round to zero
        raise InputError(
            f"record {record.model!r}: p_avg_w * i_t_ms ({p_avg_w!r} * {i_t_ms!r}) underflows to 0 J; "
            "efficiency undefined"
        )
    efficiency = batch * macs / joules
    if efficiency > _FLOAT_MAX:  # a positive energy can be small enough to overflow the quotient
        raise DegenerateDataError(
            f"record {record.model!r}: batch * macs / energy ({batch} * {macs!r} / {joules!r} J) overflows to inf; "
            "efficiency undefined"
        )
    return efficiency
