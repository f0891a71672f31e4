"""Power/latency measurement ingestion and energy efficiency.

Measurements arrive as CSV with the exact header

    model,device,batch,p_avg_w,i_t_ms,input_h,input_w,macs

one row per (model, device, batch) observation; `macs` may be blank
when the analyzer supplies the count from a model document.
"""

from __future__ import annotations

from dataclasses import dataclass

from .document import read_rows
from .errors import _FLOAT_MAX, InputError, finite

MEASUREMENT_COLUMNS = ("model", "device", "batch", "p_avg_w", "i_t_ms", "input_h", "input_w", "macs")


@dataclass(frozen=True)
class MeasurementRecord:
    """One observed (model, device, batch) run."""

    model: str
    device: str
    batch: int
    p_avg_w: float
    i_t_ms: float
    input_h: int
    input_w: int
    macs: float | None = None


def _parse_positive(value: str, column: str, row: int, cast):
    try:
        parsed = cast(value)
        if not 0 < parsed <= _FLOAT_MAX:  # the common case skips finite(), whose message the rest need
            parsed = finite(parsed, column)
    except (TypeError, ValueError) as exc:
        raise InputError(f"row {row}: column {column!r} is not a finite number: {exc}") from None
    if parsed <= 0:
        raise InputError(f"row {row}: column {column!r} must be positive, got {value!r}")
    return parsed


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
    for i, (model, device, batch, p_avg_w, i_t_ms, input_h, input_w, macs) in rows:
        model, device, macs = model.strip(), device.strip(), macs.strip()
        if not model or not device:
            raise InputError(f"row {i}: model and device must be non-empty")
        record = MeasurementRecord(
            model=model,
            device=device,
            batch=_parse_positive(batch, "batch", i, int),
            p_avg_w=_parse_positive(p_avg_w, "p_avg_w", i, float),
            i_t_ms=_parse_positive(i_t_ms, "i_t_ms", i, float),
            input_h=_parse_positive(input_h, "input_h", i, int),
            input_w=_parse_positive(input_w, "input_w", i, int),
            macs=_parse_positive(macs, "macs", i, float) if macs else None,
        )
        key = (record.model, record.device, record.batch)
        if key in seen:
            raise InputError(f"row {i}: duplicate (model, device, batch) key {key}")
        seen.add(key)
        records.append(record)
    return records


def energy_efficiency(record: MeasurementRecord, macs: float | None = None) -> float:
    """MACs per joule: batch * macs / (P_avg * I_t), with the record's own MAC count unless `macs` is given."""
    if macs is None:
        macs = record.macs
    if macs is None:
        raise InputError(f"record {record.model!r} has no MAC count; efficiency undefined")
    return record.batch * macs / (record.p_avg_w * record.i_t_ms / 1000.0)
