"""Error taxonomy shared across modules.

Two families matter to callers: bad input (malformed documents, broken
CSVs, impossible parameters) and analytic degeneracy (valid input on
which the requested statistic is undefined). The CLI maps the first to
exit code 2 and the second to exit code 3.
"""

import reprlib
import sys

_FLOAT_MAX = sys.float_info.max


class InputError(ValueError):
    """Invalid or malformed input data."""


class DegenerateDataError(ValueError):
    """Input is well formed but the requested analysis is undefined on it."""


def finite(value, what: str):
    """Return `value` if it is a real number within float range; raise InputError otherwise.

    NaN and +-inf pass every `x <= 0` guard, so each numeric input goes
    through here before such a guard. Integers come back unchanged, so
    exact counts stay exact; one too large for a float is rejected.
    """
    try:
        in_range = -_FLOAT_MAX <= value <= _FLOAT_MAX  # False for NaN, as for every comparison
    except TypeError:  # not a number at all
        in_range = False
    if not in_range or isinstance(value, bool):
        raise InputError(f"{what} must be a finite number, got {reprlib.repr(value)}")
    return value
