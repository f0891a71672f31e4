"""Weighted arithmetic intensity DI, disparity, case taxonomy, search objective.

DI weights the two reuse ratios instead of harmonically combining them:

    DI = (alpha * M_c/A + (1 - alpha) * M_c/W) / 4

with alpha = 0.80 by default. The divisor 4 comes from the
arithmetic-vs-harmonic mean inequality, which bounds the conventional
intensity by (M_c/A + M_c/W)/4: AI_c and DI then live on the same scale.

Disparity d_f = 100 * (AI_c - DI) / AI_c is computed definitionally. Its
closed form at alpha = 0.8 is 75 - 20*(W/A) - 5*(A/W); note that the
published simplification circulating alongside this metric,
75 - 6.25*(A/W + 3*W/A), is algebraically inconsistent with the
definition (for W/A ~ 30 it yields about -497 instead of -535) and is
not used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateDataError, InputError
from .netprofile import NetworkProfile

DEFAULT_ALPHA = 0.80
TAU_LOW = 1 / 3
TAU_HIGH = 3.0


class CaseTag(str, Enum):
    """Which of W and A dominates the network's data footprint."""

    ACTIVATIONS_SCARCE = "ActivationsScarce"
    BALANCED = "Balanced"
    ACTIVATIONS_DOMINANT = "ActivationsDominant"


@dataclass(frozen=True)
class DerivedMetrics:
    alpha: float
    di: float
    d_f: float
    case_tag: CaseTag


def intensity_at(alpha: float):
    """DI at one alpha, as a function of (activation_reuse, weight_reuse)."""
    if not 0 <= alpha <= 1:
        raise InputError(f"alpha must lie in [0, 1], got {alpha}")
    return lambda activation_reuse, weight_reuse: (alpha * activation_reuse + (1 - alpha) * weight_reuse) / 4


def weighted_intensity(profile: NetworkProfile, alpha: float = DEFAULT_ALPHA) -> float:
    """DI: activation reuse weighted by alpha, weight reuse by 1 - alpha."""
    return intensity_at(alpha)(profile.activation_reuse, profile.weight_reuse)


def ai_from_reuse(weight_reuse: float, activation_reuse: float) -> float:
    """Recover AI_c from the two reuse ratios; the MAC scale cancels."""
    if weight_reuse <= 0 or activation_reuse <= 0:
        raise InputError("reuse ratios must be positive")
    return weight_reuse * activation_reuse / (weight_reuse + activation_reuse)


def disparity(profile: NetworkProfile, alpha: float = DEFAULT_ALPHA) -> float:
    """Relative disparity d_f between AI_c and DI, in percent."""
    ai_c = profile.ai_c
    if ai_c <= 0:
        raise DegenerateDataError("disparity undefined at AI_c = 0")
    return 100 * (ai_c - weighted_intensity(profile, alpha)) / ai_c


def classify_case(profile: NetworkProfile, tau_low: float = TAU_LOW, tau_high: float = TAU_HIGH) -> CaseTag:
    """Bucket the network by its activations-to-weights ratio."""
    if not 0 < tau_low < tau_high:
        raise InputError("thresholds must satisfy 0 < tau_low < tau_high")
    ratio = profile.a_over_w
    if ratio < tau_low:
        return CaseTag.ACTIVATIONS_SCARCE
    if ratio > tau_high:
        return CaseTag.ACTIVATIONS_DOMINANT
    return CaseTag.BALANCED


def reuse_bound_holds(profile: NetworkProfile, tolerance: float = 1e-9) -> tuple[bool, float]:
    """AI_c never exceeds (M_c/A + M_c/W)/4; returns (holds, slack), `tolerance` relative to the bound."""
    bound = (profile.activation_reuse + profile.weight_reuse) / 4
    slack = bound - profile.ai_c
    return slack >= -tolerance * bound, slack


def automl_metric(profile: NetworkProfile, alpha: float = DEFAULT_ALPHA, k: float = 0.5) -> float:
    """Search objective M_c * (1/DI)^k balancing work against memory traffic.

    k in (0, 1) normalizes memory cost relative to compute cost; k = 0 is
    accepted and degenerates to the plain MAC count.
    """
    if not 0 <= k < 1:
        raise InputError(f"k must lie in [0, 1), got {k}")
    di = weighted_intensity(profile, alpha)
    if di <= 0:
        raise DegenerateDataError("objective undefined at DI = 0")
    return profile.macs * (1 / di) ** k


def derive_metrics(
    profile: NetworkProfile,
    alpha: float = DEFAULT_ALPHA,
    tau_low: float = TAU_LOW,
    tau_high: float = TAU_HIGH,
) -> DerivedMetrics:
    """Bundle DI, d_f, and the case tag for reporting."""
    return DerivedMetrics(
        alpha=alpha,
        di=weighted_intensity(profile, alpha),
        d_f=disparity(profile, alpha),
        case_tag=classify_case(profile, tau_low, tau_high),
    )
