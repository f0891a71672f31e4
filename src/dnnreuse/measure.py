"""Power/latency measurement ingestion and energy metrics.

Measurements arrive as CSV with the exact header

    model,device,batch,p_avg_w,i_t_ms,input_h,input_w,macs

one row per (model, device, batch) observation; `macs` may be blank
when the analyzer supplies the count from a model document. Raw power
traces use the header `t_ms,watts`.

Energy per pixel divides by one frame's pixel count by default, even
for batched runs; pass per_frame=True to normalize by the batch as
well. Idle power is never subtracted unless asked.
"""

from __future__ import annotations

import csv
import io
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

    def pixels(self) -> int:
        return self.input_h * self.input_w


@dataclass(frozen=True)
class EnergyMetrics:
    epp: float  # joules per input pixel
    efficiency: float  # MACs per joule


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


def serialize_measurements(records) -> str:
    """Inverse of load_measurements, for round-tripping datasets."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(MEASUREMENT_COLUMNS)
    for r in records:
        macs = "" if r.macs is None else (f"{int(r.macs)}" if float(r.macs).is_integer() else f"{r.macs!r}")
        writer.writerow([r.model, r.device, r.batch, r.p_avg_w, r.i_t_ms, r.input_h, r.input_w, macs])
    return out.getvalue()


def load_power_samples(text: str) -> list[float]:
    """Parse a raw power trace CSV (t_ms,watts) into a watt series."""
    header, rows = read_rows(text)
    if header != ["t_ms", "watts"]:
        raise InputError("power trace header must be exactly `t_ms,watts`")
    watts = [_parse_positive(value, "watts", i, float) for i, (_, value) in rows]
    if not watts:
        raise InputError("power trace contains no samples")
    return watts


def average_power(samples, idle: float = 0.0, subtract_idle: bool = False) -> float:
    """Average power after the warm-up ramp.

    The series is considered stable once it first reaches 95% of the
    mean of its final quartile; everything before that point is ramp and
    is discarded.
    """
    samples = list(samples)
    if not samples:
        raise InputError("average_power needs at least one sample")
    tail = samples[-max(1, len(samples) // 4):]
    threshold = 0.95 * (sum(tail) / len(tail))
    start = next(i for i, w in enumerate(samples) if w >= threshold)
    stable = samples[start:]
    avg = sum(stable) / len(stable)
    return avg - idle if subtract_idle else avg


def epp(record: MeasurementRecord, per_frame: bool = False) -> float:
    """Energy per input pixel in joules: P_avg * I_t / pixels.

    The denominator is one frame's pixels; per_frame=True also divides
    by the batch size so the figure is per processed frame.
    """
    if record.pixels() <= 0:
        raise InputError("zero-pixel input frame")
    joules = record.p_avg_w * (record.i_t_ms / 1000.0)
    value = joules / record.pixels()
    return value / record.batch if per_frame else value


def energy_efficiency(record: MeasurementRecord, macs: float | None = None) -> float:
    """MACs per joule: batch * macs / (P_avg * I_t), with the record's own MAC count unless `macs` is given."""
    if macs is None:
        macs = record.macs
    if macs is None:
        raise InputError(f"record {record.model!r} has no MAC count; efficiency undefined")
    return record.batch * macs / (record.p_avg_w * record.i_t_ms / 1000.0)


def energy_metrics(record: MeasurementRecord, per_frame: bool = False) -> EnergyMetrics:
    return EnergyMetrics(epp=epp(record, per_frame), efficiency=energy_efficiency(record))
