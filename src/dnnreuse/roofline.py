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
from .errors import InputError, finite, positive, sorted_keys

HARDWARE_KEYS = ("name", "peak_flops", "peak_bandwidth_bytes_per_s")

MODES = ("raw", "converted")
DEFAULT_BYTES_PER_ELEMENT = 4.0
DEFAULT_FLOPS_PER_MAC = 2.0
ENVELOPE_POINTS = 64  # samples on each of the envelope's two segments

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
        positive(self.peak_throughput, "peak_throughput")
        positive(self.peak_bandwidth, "peak_bandwidth")
        if not 0 < self.cmr < math.inf:  # an inf or 0 ridge calls every intensity memory or compute bound
            raise InputError(f"peak_throughput / peak_bandwidth leaves float range: {self.peak_throughput} / {self.peak_bandwidth}")

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
    for key in HARDWARE_KEYS[1:]:
        try:
            raw = positive(doc[key], key)
        except InputError as exc:
            m = isinstance(doc[key], str) and _EXPONENT_NUMBER.fullmatch(doc[key])
            hint = ""
            if m and math.isfinite(float(doc[key])):  # beyond float range, YAML 1.1 reads the suggested form as inf
                hint = f"; YAML 1.1 reads that form as text, so write {m[1]}{m[2] or '.0'}e{m[3] or '+'}{m[4]}"
            raise InputError(f"{exc}{hint}") from None
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
    positive(bytes_per_element, "bytes_per_element")
    positive(flops_per_mac, "flops_per_mac")
    if mode == "raw":
        return 1.0
    factor = flops_per_mac / bytes_per_element
    if not 0 < factor < math.inf:
        raise InputError(f"flops_per_mac / bytes_per_element leaves float range: {flops_per_mac} / {bytes_per_element}")
    return factor


def _place(hw: HardwareSpec, factor: float, intensity: float) -> tuple[float, Bound]:
    """Attainable throughput, min(peak, intensity * bandwidth), and bound of one intensity converted by `factor`."""
    ops_per_byte = positive(intensity, "intensity") * factor
    attainable = min(hw.peak_throughput, ops_per_byte * hw.peak_bandwidth)
    return attainable, Bound.COMPUTE if ops_per_byte >= hw.cmr else Bound.MEMORY


def classify(
    hw: HardwareSpec,
    intensity: float,
    mode: str = "raw",
    bytes_per_element: float = DEFAULT_BYTES_PER_ELEMENT,
    flops_per_mac: float = DEFAULT_FLOPS_PER_MAC,
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
    bytes_per_element: float = DEFAULT_BYTES_PER_ELEMENT,
    flops_per_mac: float = DEFAULT_FLOPS_PER_MAC,
) -> RooflineChart:
    """Place labelled intensities on the roofline and sample its envelope.

    points: iterable of (label, intensity) in input units.
    measured: optional mapping label -> achieved operations per second,
    carried through to the chart once checked finite.
    """
    factor = _conversion(mode, bytes_per_element, flops_per_mac)
    measured = dict(measured or {})
    placed, labels = [], set()
    for label, intensity in points:
        text = str(label)
        if text in labels:
            raise InputError(f"label {text!r} is placed twice; each point needs its own label")
        labels.add(text)
        attainable, bound = _place(hw, factor, intensity)
        ops = measured.get(label)
        if ops is not None:
            ops = finite(ops, f"measured operations per second of {text!r}")
        placed.append(RooflinePoint(text, float(intensity), attainable, bound, ops))
    if not placed:
        raise InputError("no points to place on the roofline")
    knee = hw.cmr / factor
    lo = min(min(p.intensity for p in placed), knee) / 10.0
    hi = max(max(p.intensity for p in placed), knee) * 10.0
    if not 0 < lo < hi < math.inf:
        raise InputError(f"roofline intensity axis leaves float range: {lo} to {hi}")
    slope = _geomspace(lo, knee, ENVELOPE_POINTS)
    roof = _geomspace(knee, hi, ENVELOPE_POINTS)
    envelope = [(x, _place(hw, factor, x)[0]) for x in slope]
    envelope += [(x, hw.peak_throughput) for x in roof]
    return RooflineChart(points=tuple(placed), envelope=tuple(envelope))
