"""Whole-network aggregation: cumulative counts, reuse ratios, liveness.

Activation counting convention for network totals: every produced
tensor is counted exactly once, meaning the network input plus each
layer output that is not written in place. Summing per-layer
ifmap+ofmap counts instead would double-count every interior tensor of
a chain.

Per-layer intensity (layerwise_ai_stats) divides a layer's MACs by its
weights plus the tensor it produces; the layer owns its output, while
its input was already paid for by the producer.

Profiles CSVs (load_profiles) come in two schemas. Count form has
macs, weights, and activations columns, so analyze output pipes in
directly; the macs column doubles as the forward-pass count. Ratio
form has mc_over_w and mc_over_a columns; the profile is rebuilt from
the reuse pair, so its internal counts are scale-free, and the
forward-pass count comes from an optional macs column.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace
from itertools import accumulate

from .document import read_rows
from .errors import _FLOAT_MAX, DegenerateDataError, InputError, finite, integer
from .graph import ModelGraph


@dataclass(frozen=True)
class NetworkProfile:
    """Cumulative work/data counts and the ratios derived from them.

    The constructor fills the instance's fields in one step, then checks
    the three counts, for every caller, `replace` and `batch_scale`
    included.
    """

    macs: float
    weights: float
    activations: float
    peak_concurrent: float | None = None
    batch: int = 1

    def __init__(self, macs: float, weights: float, activations: float, peak_concurrent: float | None = None, batch: int = 1):
        self.__dict__.update(macs=macs, weights=weights, activations=activations, peak_concurrent=peak_concurrent, batch=batch)
        # accepted when every count lies in [0, float max], which NaN fails, and none is a bool; only a
        # refused profile goes through finite, whose message names the first count that fails
        try:
            accepted = 0 <= macs <= _FLOAT_MAX and 0 <= weights <= _FLOAT_MAX and 0 <= activations <= _FLOAT_MAX
        except TypeError:  # not a number at all
            accepted = False
        if not accepted or bool in (macs.__class__, weights.__class__, activations.__class__):
            if min(finite(macs, "macs"), finite(weights, "weights"), finite(activations, "activations")) < 0:
                raise InputError("profile counts must be non-negative")
        if weights < 1 or activations < 1:  # only a divisor below 1 takes a quotient of counts in range past float max
            if weights + activations <= 0:
                raise DegenerateDataError("network has no weights or activations")
            for count, what in ((weights, "weights"), (activations, "activations")):
                if count and macs / count == math.inf:  # then AI_c, macs / (weights + activations), is no larger
                    raise InputError(f"macs / {what} leaves float range: {macs} / {count}")

    @property
    def ai_c(self) -> float:
        data = self.weights + self.activations
        if data == math.inf:  # float counts can sum beyond float range; halved, they cannot, and the quotient is the same
            return (self.macs / 2) / (self.weights / 2 + self.activations / 2)
        return self.macs / data

    @property
    def weight_reuse(self) -> float:
        if self.weights <= 0:
            raise DegenerateDataError("weight reuse undefined: no weights")
        return self.macs / self.weights

    @property
    def activation_reuse(self) -> float:
        if self.activations <= 0:
            raise DegenerateDataError("activation reuse undefined: no activations")
        return self.macs / self.activations

    @property
    def a_over_w(self) -> float:
        if self.weights <= 0:
            raise DegenerateDataError("A/W undefined: no weights")
        return self.activations / self.weights

    @classmethod
    def from_reuse(cls, weight_reuse: float, activation_reuse: float) -> "NetworkProfile":
        """Smallest profile with the given reuse ratios.

        Ratios fix a profile only up to scale, so macs is pinned to
        weight_reuse * activation_reuse, giving W = activation_reuse and
        A = weight_reuse.
        """
        if weight_reuse <= 0 or activation_reuse <= 0:
            raise InputError("reuse ratios must be positive")
        return cls(weight_reuse * activation_reuse, activation_reuse, weight_reuse)


def _number(fields: list, column: dict, name: str) -> float:
    return finite(float(fields[column[name]]), name)


def _refuse(i: int, model: str, fields: list, column: dict, count_form: bool):
    """Raise the error of a refused row's first bad cell, read in its form's order and refused as the record refuses it."""
    try:
        if count_form:
            NetworkProfile(_number(fields, column, "macs"), _number(fields, column, "weights"), _number(fields, column, "activations"))
        else:
            NetworkProfile.from_reuse(_number(fields, column, "mc_over_w"), _number(fields, column, "mc_over_a"))
            if "macs" in column and fields[column["macs"]] and (macs := _number(fields, column, "macs")) < 0:
                raise InputError(f"macs must be non-negative, got {macs}")
    except DegenerateDataError as exc:  # a ValueError too, but the row is well formed
        raise DegenerateDataError(f"{model}: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"row {i}: bad value for {model!r}: {exc}") from None
    raise AssertionError(f"row {i} was refused, but each of its cells passes")


def load_profiles(text: str) -> dict[str, tuple[NetworkProfile, float | None]]:
    """model -> (profile, forward-pass macs or None) from a profiles CSV, in file order."""
    header, rows = read_rows(text)
    column = {name: i for i, name in enumerate(header)}  # a repeated name means its last column
    if "model" not in column:
        raise InputError("profile CSV needs a 'model' column")
    count_form = {"macs", "weights", "activations"}.issubset(column)
    if not count_form and not {"mc_over_w", "mc_over_a"}.issubset(column):
        raise InputError("profile CSV needs either macs,weights,activations or mc_over_w,mc_over_a columns")
    model_at, macs_at = column["model"], column.get("macs")
    first_at, second_at = (column["weights"], column["activations"]) if count_form else (column["mc_over_w"], column["mc_over_a"])
    profiles = {}
    for i, fields in rows:
        model = fields[model_at].strip()
        if not model:
            raise InputError(f"row {i}: empty model name")
        if model in profiles:
            raise InputError(f"row {i}: duplicate model {model!r}")
        # the record checks every count, a blank count-form macs included; only the ratio form's forward-pass macs,
        # which no record holds, is checked here, against a range that NaN fails. _refuse names a refused row's bad cell
        try:
            first, second = float(fields[first_at]), float(fields[second_at])
            macs = float(fields[macs_at]) if macs_at is not None and fields[macs_at] else None
            profile = NetworkProfile(macs, first, second) if count_form else NetworkProfile.from_reuse(first, second)
            accepted = macs is None or 0 <= macs <= _FLOAT_MAX
        except ValueError:  # a cell float() cannot read, or a record's InputError or DegenerateDataError
            accepted = False
        if not accepted:
            _refuse(i, model, fields, column, count_form)
        profiles[model] = profile, macs
    if not profiles:
        raise InputError("no profile rows")
    return profiles


@dataclass(frozen=True)
class LayerStats:
    """Per-layer arithmetic intensities of MAC-bearing layers plus summary stats."""

    per_layer_ai: tuple  # (layer name, intensity) pairs in execution order
    median: float
    variance: float


def aggregate(graph: ModelGraph) -> NetworkProfile:
    """Sum the layer costs of a graph at batch size 1."""
    macs = 0
    weights = 0
    activations = 0
    for spec in graph.layers:
        produced = graph.shapes[spec.name].element_count()
        cost = graph.costs[spec.name]
        macs += cost.macs
        weights += cost.weights
        # Count each produced tensor once. In-place layers reuse their
        # producer's storage; everything else, the input included,
        # contributes exactly its output elements.
        if not spec.in_place:
            activations += produced
    return NetworkProfile(
        macs=macs,
        weights=weights,
        activations=activations,
        peak_concurrent=peak_concurrent_activations(graph),
    )


def layerwise_ai_stats(graph: ModelGraph) -> LayerStats:
    """Intensity per MAC-bearing (conv or fc) layer, with median and population variance."""
    per_layer = []
    for spec in graph.layers:
        cost = graph.costs[spec.name]
        if cost.macs == 0:
            continue
        produced = graph.shapes[spec.name].element_count()
        per_layer.append((spec.name, cost.macs / (cost.weights + produced)))
    if not per_layer:
        raise DegenerateDataError("no MAC-bearing layers")
    values = [ai for _, ai in per_layer]
    return LayerStats(
        per_layer_ai=tuple(per_layer),
        median=statistics.median(values),
        variance=statistics.pvariance(values),
    )


def peak_concurrent_activations(graph: ModelGraph) -> int:
    """Largest total of simultaneously live tensor elements.

    A tensor is live from the step that produces it until the last step
    that consumes it; in-place layers alias their input storage instead
    of producing a new tensor.
    """
    root = {}
    last_use = {}
    for step, spec in enumerate(graph.layers):
        root[spec.name] = root[spec.inputs[0]] if spec.in_place else spec.name
        for name in (spec.name, *spec.inputs):
            last_use[root[name]] = step

    # each tensor enters the running sum at its step and leaves one step after its last use
    delta = [0] * (len(graph.layers) + 1)
    for step, spec in enumerate(graph.layers):
        if not spec.in_place:
            size = graph.shapes[spec.name].element_count()
            delta[step] += size
            delta[last_use[spec.name] + 1] -= size
    return max(accumulate(delta))


def batch_scale(profile: NetworkProfile, b: int) -> NetworkProfile:
    """Scale a batch-1 profile to batch b: work and activations grow, weights do not."""
    integer(b, "batch size")
    if profile.batch != 1:
        raise InputError("batch_scale expects a batch-1 profile")
    if b == 1:
        return profile
    return replace(
        profile,
        macs=b * profile.macs,
        activations=b * profile.activations,
        peak_concurrent=None if profile.peak_concurrent is None else b * profile.peak_concurrent,
        batch=b,
    )
