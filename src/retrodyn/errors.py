"""Exception types shared across the package, and the one check that
every numeric input passes through."""

import operator
import sys

_FLOAT_MAX = sys.float_info.max
_BOUNDS = {">": operator.gt, ">=": operator.ge, "!=": operator.ne}


class ParameterError(ValueError):
    """Raised when model parameters, options or configuration are invalid."""


class DomainError(ValueError):
    """Raised when a quantity is evaluated outside its mathematical domain,
    e.g. a Volterra term at a nonpositive coordinate."""


class IntegrationError(RuntimeError):
    """Raised when a numerical integration cannot proceed (step underflow,
    step budget exhausted, or a non-finite state)."""


def _checked_float(name: str, value, bound: str, limit: float = 0.0) -> float:
    """Return ``value`` as a float, or raise ParameterError naming ``name``.

    ``value`` must be an int or a float (numpy.float64 is one), not a
    bool, and finite; comparing against the largest float also rejects
    ints too large to convert.  It must also satisfy ``value <bound>
    limit``, with ``bound`` one of ">", ">=" or "!=".

    A sweep cell's alpha and k pass through here once per cell, so a plain
    float skips the type tests and messages are built only on failure.
    """
    if (
        value.__class__ is not float
        and (isinstance(value, bool) or not isinstance(value, (int, float)))
    ) or not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise ParameterError(f"{name!r} must be a finite real number, got {value!r}")
    if not _BOUNDS[bound](value, limit):
        raise ParameterError(f"{name!r} must be {bound} {limit:g}, got {value!r}")
    return float(value)
