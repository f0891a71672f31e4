"""Weighted arithmetic intensity DI, disparity and case taxonomy.

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

import math
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


def _intensities(alpha: float, activation_reuse, weight_reuse) -> list[float]:
    """DI at one alpha of each network, given the networks' activation reuses and weight reuses in the same order.

    The one statement of the DI formula. The caller checks alpha.
    """
    beta = 1 - alpha
    return [(alpha * a + beta * w) / 4 for a, w in zip(activation_reuse, weight_reuse)]


def weighted_intensity(profile: NetworkProfile, alpha: float = DEFAULT_ALPHA) -> float:
    """DI: activation reuse weighted by alpha, weight reuse by 1 - alpha."""
    if not 0 <= alpha <= 1:
        raise InputError(f"alpha must lie in [0, 1], got {alpha}")
    return _intensities(alpha, (profile.activation_reuse,), (profile.weight_reuse,))[0]


def disparity(profile: NetworkProfile, alpha: float = DEFAULT_ALPHA) -> float:
    """Relative disparity d_f between AI_c and DI, in percent; a d_f beyond float range is refused."""
    ai_c = profile.ai_c
    if ai_c <= 0:
        raise DegenerateDataError("disparity undefined at AI_c = 0")
    di = weighted_intensity(profile, alpha)
    d_f = 100 * (ai_c - di) / ai_c
    if not math.isfinite(d_f):  # 100 * (ai_c - di) can leave float range where d_f itself does not
        d_f = 100 * ((ai_c - di) / ai_c)
        if not math.isfinite(d_f):
            raise DegenerateDataError(f"d_f = 100 * (AI_c - DI) / AI_c leaves float range: AI_c {ai_c!r}, DI {di!r}")
    return d_f


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
