"""Roofline placement of networks against a device's compute/memory ceiling.

Intensities may be compared in two ways. In "raw" mode the per-element
operation count is held against the device's compute-to-memory ratio
directly, one MAC per operation and one element per byte. In
"converted" mode the intensity is first rescaled by flops_per_mac and
bytes_per_element so the comparison happens in flops per byte.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass

from .document import load_document
from .errors import InputError, finite, sorted_keys

HARDWARE_KEYS = ("name", "peak_flops", "peak_bandwidth_bytes_per_s")

MODES = ("raw", "converted")

# an exponent number that float() reads; YAML 1.1 reads it as a number only with a dot and a signed exponent
_EXPONENT_NUMBER = re.compile(r"([-+]?\d+)(\.\d*)?[eE]([-+]?)(\d+)")


class Bound(enum.Enum):
    COMPUTE = "ComputeBound"
    MEMORY = "MemoryBound"


@dataclass(frozen=True)
class HardwareSpec:
    name: str
    peak_throughput: float
    peak_bandwidth: float

    def __post_init__(self):
        if self.peak_throughput <= 0 or self.peak_bandwidth <= 0:
            raise InputError("hardware peaks must be positive")

    @property
    def cmr(self) -> float:
        """Compute-to-memory ratio, operations per byte at both peaks."""
        return self.peak_throughput / self.peak_bandwidth


@dataclass(frozen=True)
class RooflinePoint:
    label: str
    intensity: float
    attainable: float
    bound: Bound
    measured: float | None = None


@dataclass(frozen=True)
class RooflineChart:
    hardware: HardwareSpec
    mode: str
    points: tuple[RooflinePoint, ...]
    envelope: tuple[tuple[float, float], ...]


def load_hardware_spec(text: str) -> HardwareSpec:
    doc = load_document(text, InputError)
    if not isinstance(doc, dict):
        raise InputError("hardware spec must be a mapping")
    if "cmr" in doc:
        raise InputError("cmr is derived from the peaks, do not state it in the spec")
    unknown = sorted_keys(set(doc) - set(HARDWARE_KEYS))
    if unknown:
        raise InputError(f"unknown hardware fields: {', '.join(map(str, unknown))}")
    missing = [k for k in HARDWARE_KEYS if k not in doc]
    if missing:
        raise InputError(f"hardware spec missing fields: {', '.join(missing)}")
    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise InputError("hardware name must be a non-empty string")
    values = {}
    for key in ("peak_flops", "peak_bandwidth_bytes_per_s"):
        try:
            raw = finite(doc[key], key)
        except InputError as exc:
            m = isinstance(doc[key], str) and _EXPONENT_NUMBER.fullmatch(doc[key])
            hint = ""
            if m and math.isfinite(float(doc[key])):  # beyond float range, YAML 1.1 reads the suggested form as inf
                hint = f"; YAML 1.1 reads that form as text, so write {m[1]}{m[2] or '.0'}e{m[3] or '+'}{m[4]}"
            raise InputError(f"{exc}{hint}") from None
        if raw <= 0:
            raise InputError(f"{key} must be positive, got {raw}")
        values[key] = float(raw)
    return HardwareSpec(
        name=name,
        peak_throughput=values["peak_flops"],
        peak_bandwidth=values["peak_bandwidth_bytes_per_s"],
    )


def _conversion(mode: str, bytes_per_element: float, flops_per_mac: float) -> float:
    """Factor taking an input-units intensity to operations per byte."""
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {mode!r}")
    if finite(bytes_per_element, "bytes_per_element") <= 0 or finite(flops_per_mac, "flops_per_mac") <= 0:
        raise InputError("bytes_per_element and flops_per_mac must be positive")
    if mode == "raw":
        return 1.0
    factor = flops_per_mac / bytes_per_element
    if not 0 < factor < math.inf:
        raise InputError(f"flops_per_mac / bytes_per_element leaves float range: {flops_per_mac} / {bytes_per_element}")
    return factor


def _place(hw: HardwareSpec, factor: float, intensity: float) -> tuple[float, Bound]:
    """attainable_throughput and classify of one intensity, converted by `factor`."""
    if finite(intensity, "intensity") <= 0:
        raise InputError(f"intensity must be positive, got {intensity}")
    ops_per_byte = intensity * factor
    attainable = min(hw.peak_throughput, ops_per_byte * hw.peak_bandwidth)
    return attainable, Bound.COMPUTE if ops_per_byte >= hw.cmr else Bound.MEMORY


def attainable_throughput(
    hw: HardwareSpec,
    intensity: float,
    mode: str = "raw",
    bytes_per_element: float = 4.0,
    flops_per_mac: float = 2.0,
) -> float:
    """min(peak, intensity * bandwidth) in the comparison space."""
    return _place(hw, _conversion(mode, bytes_per_element, flops_per_mac), intensity)[0]


def classify(
    hw: HardwareSpec,
    intensity: float,
    mode: str = "raw",
    bytes_per_element: float = 4.0,
    flops_per_mac: float = 2.0,
) -> Bound:
    """Compute bound at or above the ridge intensity, memory bound below."""
    return _place(hw, _conversion(mode, bytes_per_element, flops_per_mac), intensity)[1]


def _geomspace(start: float, stop: float, num: int) -> list[float]:
    """`num` samples evenly spaced in log10 from start to stop, both ends exact."""
    lo, hi = math.log10(start), math.log10(stop)
    step = (hi - lo) / (num - 1)
    return [start] + [10.0 ** (i * step + lo) for i in range(1, num - 1)] + [stop]


def roofline_points(
    hw: HardwareSpec,
    points,
    measured=None,
    mode: str = "raw",
    bytes_per_element: float = 4.0,
    flops_per_mac: float = 2.0,
    envelope_points: int = 64,
) -> RooflineChart:
    """Place labelled intensities on the roofline and sample its envelope.

    points: iterable of (label, intensity) in input units.
    measured: optional mapping label -> achieved operations per second,
    carried through to the chart untouched.
    """
    factor = _conversion(mode, bytes_per_element, flops_per_mac)
    if envelope_points < 2:
        raise InputError("envelope needs at least 2 samples per segment")
    measured = dict(measured or {})
    placed, labels = [], set()
    for label, intensity in points:
        text = str(label)
        if text in labels:
            raise InputError(f"label {text!r} is placed twice; each point needs its own label")
        labels.add(text)
        attainable, bound = _place(hw, factor, intensity)
        placed.append(RooflinePoint(text, float(intensity), attainable, bound, measured.get(label)))
    if not placed:
        raise InputError("no points to place on the roofline")
    knee = hw.cmr / factor
    lo = min(min(p.intensity for p in placed), knee) / 10.0
    hi = max(max(p.intensity for p in placed), knee) * 10.0
    if not 0 < lo < hi < math.inf:
        raise InputError(f"roofline intensity axis leaves float range: {lo} to {hi}")
    slope = _geomspace(lo, knee, envelope_points)
    roof = _geomspace(knee, hi, envelope_points)
    envelope = [(x, _place(hw, factor, x)[0]) for x in slope]
    envelope += [(x, hw.peak_throughput) for x in roof]
    return RooflineChart(hardware=hw, mode=mode, points=tuple(placed), envelope=tuple(envelope))
