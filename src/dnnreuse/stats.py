"""Correlation, calibration sweep, and confidence-interval machinery.

The z-critical values are fixed constants (1.96 for 95%, 2.58 for 99%)
rather than quantiles recomputed from a normal distribution, so that
reported intervals are stable to the last printed digit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat

from .errors import DegenerateDataError, InputError, finite, integer
from .metrics import _intensities

Z_CRITICAL = {0.95: 1.96, 0.99: 2.58}
DEFAULT_STEP = 0.05
DEFAULT_EPSILON = 0.005


@dataclass(frozen=True)
class CalibrationPoint:
    alpha: float
    r_p: float
    r_s: float


@dataclass(frozen=True)
class CalibrationCurve:
    """Correlation of DI(alpha) with measured efficiency over an alpha grid."""

    points: tuple[CalibrationPoint, ...]
    selected_alpha: float
    selection_rule: dict


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float


def _floats(values) -> list[float]:
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError):
        raise InputError("correlation needs flat sequences of numbers") from None


def _validate_pair(xs, ys):
    xs, ys = _floats(xs), _floats(ys)
    if len(xs) != len(ys):
        raise InputError(f"paired series must have equal length, got {len(xs)} and {len(ys)}")
    if len(xs) < 3:
        raise InputError("correlation needs at least 3 points")
    return xs, ys


def _unit_deviations(values) -> list[float]:
    """Deviations from the mean, divided by the largest one.

    Products of the results lie in [-1, 1], so the sums in pearson can
    neither overflow nor lose digits to subnormal underflow, whatever
    the magnitude of the inputs.
    """
    low, high = min(values), max(values)
    # an exact power-of-two rescale into (-1, 1) keeps the mean's sum finite, and leaves a NaN or inf as it is (an inf,
    # or a NaN listed first, is low or high, whose frexp exponent is 0); so the sum is finite unless some value is not
    _, exponent = math.frexp(max(abs(low), abs(high)))
    values = list(map(math.ldexp, values, repeat(-exponent)))
    try:
        total = math.fsum(values)
    except ValueError:  # inf together with -inf
        total = math.nan
    if not math.isfinite(total):
        raise DegenerateDataError("correlation undefined on non-finite values")
    if low == high:
        raise DegenerateDataError("correlation undefined on a zero-variance series")
    mean = total / len(values)
    deviations = list(map(operator.sub, values, repeat(mean)))
    # rescaling and subtracting the mean never reorder two values, so the largest |deviation| is at low or high
    peak = max(abs(math.ldexp(low, -exponent) - mean), abs(math.ldexp(high, -exponent) - mean))
    return list(map(operator.truediv, deviations, repeat(peak)))


def _co_moment(dx, sum_x, dy, sum_y) -> float:
    """Sum of dx*dy about the exact means of the two series, given fsum(dx) and fsum(dy).

    The deviations are taken from a rounded mean; the second term (the
    corrected two-pass formula) removes the offset that rounding leaves,
    which matters when the spread is only a few ulps wide.
    """
    return math.fsum(map(operator.mul, dx, dy)) - sum_x * sum_y / len(dx)


def _series(values) -> tuple[list[float], float, float]:
    """What _correlation needs of a series: its _unit_deviations, their fsum and their co-moment."""
    d = _unit_deviations(values)
    total = math.fsum(d)
    return d, total, _co_moment(d, total, d, total)


def _correlation(x, y) -> float:
    """Pearson's r from the _series of two samples."""
    (dx, sum_x, xx), (dy, sum_y, yy) = x, y
    r = _co_moment(dx, sum_x, dy, sum_y) / math.sqrt(xx * yy)
    return max(-1.0, min(1.0, r))


def pearson(xs, ys) -> float:
    """Product-moment correlation coefficient, independent of input scale."""
    xs, ys = _validate_pair(xs, ys)
    return _correlation(_series(xs), _series(ys))


def _average_ranks(values) -> list[float]:
    """1-based ranks; each run of ties shares its mean rank, an exact half-integer."""
    if not all(map(math.isfinite, values)):
        raise DegenerateDataError("ranks undefined on non-finite values")
    ordered = sorted(values)
    # a run of ties spans the first to the last 1-based position of its value in `ordered`
    first = dict(zip(reversed(ordered), range(len(ordered), 0, -1)))
    last = dict(zip(ordered, range(1, len(ordered) + 1)))
    return [(first[v] + last[v]) / 2 for v in values]


def spearman(xs, ys) -> float:
    """Rank correlation: pearson over average ranks, ties get their mean rank."""
    xs, ys = _validate_pair(xs, ys)
    return pearson(_average_ranks(xs), _average_ranks(ys))


def alpha_grid(step: float = DEFAULT_STEP) -> list[float]:
    """[0, step, 2*step, ...] capped and terminated at exactly 1.0."""
    if not 0 < step <= 1:
        raise InputError(f"step must lie in (0, 1], got {step}")
    if step < 1e-4:  # alphas print with four decimals, so a finer step repeats them; this caps a grid at 10,001
        raise InputError(f"step must be at least 0.0001, got {step}")
    count = int(round(1.0 / step))
    if abs(count * step - 1.0) > 1e-9:
        raise InputError(f"step {step} does not divide the [0, 1] range evenly")
    return [round(i * step, 10) for i in range(count)] + [1.0]


def _check_epsilon(epsilon: float):
    # NaN fails every `gain < epsilon` test and a negative epsilon nearly every one: both quietly select the argmax
    if finite(epsilon, "epsilon") < 0:
        raise InputError(f"epsilon must be >= 0, got {epsilon}")


def alpha_sweep(profiles, efficiencies, step: float = DEFAULT_STEP, epsilon: float = DEFAULT_EPSILON) -> CalibrationCurve:
    """Correlate DI(alpha) against efficiency over the grid; pick the plateau.

    Each r_p is `pearson(DI(alpha), efficiencies)` and each r_s is
    `spearman(DI(alpha), efficiencies)`, to the last bit. r_s comes from
    one argsort of DI per alpha, which re-sorts the previous alpha's order:
    the DI ranks, taken in sorted order, are 1..n unless DI ties, and the
    efficiency-rank deviations are permuted to match. Tied networks share
    one rank, so their order among themselves pairs the same products.
    Every deviation is computed element by element and every sum is a
    `math.fsum`, which is correctly rounded in any order, so the
    permutation changes no float.
    """
    _check_epsilon(epsilon)
    profiles = list(profiles)
    efficiencies = _floats(efficiencies)
    if len(profiles) != len(efficiencies):
        raise InputError("profiles and efficiencies must be matched lists")
    if len(profiles) < 3:
        raise InputError("calibration needs at least 3 networks")
    # the efficiency series and the reuse pairs are fixed, so they are prepared once, not at every alpha
    efficiency = _series(efficiencies)
    rank_deviations, rank_total, rank_moment = _series(_average_ranks(efficiencies))
    untied_ranks = _series([float(rank) for rank in range(1, len(profiles) + 1)])
    grid = alpha_grid(step)
    activation_reuse, weight_reuse = zip(*[(p.activation_reuse, p.weight_reuse) for p in profiles])
    points = []
    order = list(range(len(profiles)))
    for alpha in grid:
        dis = _intensities(alpha, activation_reuse, weight_reuse)  # every grid alpha lies in [0, 1]
        r_p = _correlation(_series(dis), efficiency)
        order.sort(key=dis.__getitem__)  # DI moves little between alphas, so Timsort gets a nearly sorted list
        ordered = list(map(dis.__getitem__, order))
        tied = any(map(operator.eq, ordered, ordered[1:]))
        ranks = _series(_average_ranks(ordered)) if tied else untied_ranks
        r_s = _correlation(ranks, (list(map(rank_deviations.__getitem__, order)), rank_total, rank_moment))
        points.append(CalibrationPoint(alpha=alpha, r_p=r_p, r_s=r_s))
    points = tuple(points)
    return CalibrationCurve(points, select_alpha(points, epsilon), {"rule": "plateau", "epsilon": epsilon})


def select_alpha(points, epsilon: float = DEFAULT_EPSILON) -> float:
    """Smallest grid alpha in `points` (CalibrationPoints in grid order) where the next step gains less than epsilon.

    A curve that keeps improving by epsilon or more all the way to the
    end has no plateau; the argmax (first among ties) is returned then.
    """
    _check_epsilon(epsilon)
    if not points:
        raise InputError("empty calibration curve")
    for point in points:  # NaN fails every comparison below, so it would match no argmax
        finite(point.r_p, f"r_p at alpha {point.alpha}")
    for here, after in zip(points, points[1:]):
        if after.r_p - here.r_p < epsilon:
            return here.alpha
    return max(points, key=lambda p: p.r_p).alpha


def fisher_ci(r: float, n: int, level: float = 0.95) -> ConfidenceInterval:
    """Confidence interval for a population correlation via Fisher's Z.

    Z = atanh(r), standard error 1/sqrt(n - 3), fixed z-critical, then
    tanh back to correlation space.
    """
    margin = fisher_z_width(n, level) / 2  # halving is exact, so this is z / sqrt(n - 3) to the bit
    if not -1.0 < r < 1.0:
        raise InputError(f"Fisher transform diverges at |r| = 1, got {r}")
    z = math.atanh(r)
    return ConfidenceInterval(math.tanh(z - margin), math.tanh(z + margin))


def fisher_z_width(n: int, level: float = 0.95) -> float:
    """Width of the interval in Z space, independent of r; the one check of `level` and `n` for the Fisher functions."""
    if level not in Z_CRITICAL:
        raise InputError(f"level must be one of {sorted(Z_CRITICAL)}, got {level}")
    return 2 * Z_CRITICAL[level] / math.sqrt(integer(n, "n", 4) - 3)  # n = 3 has no finite standard error
