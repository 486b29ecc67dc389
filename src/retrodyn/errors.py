"""Exception types shared across the package, and the one check that
every numeric input passes through."""

import operator
import sys

_FLOAT_MAX = sys.float_info.max
_NEG_FLOAT_MAX = -_FLOAT_MAX
_BOUNDS = {">": operator.gt, ">=": operator.ge, "!=": operator.ne}


class ParameterError(ValueError):
    """Raised when model parameters, options or configuration are invalid."""


class DomainError(ValueError):
    """Raised when a quantity is evaluated outside its mathematical domain,
    e.g. a Volterra term at a nonpositive coordinate."""


class IntegrationError(RuntimeError):
    """Raised when a numerical integration cannot proceed (step underflow,
    step budget exhausted, or a non-finite state)."""


def _checked_float(name: str, value, bound: str) -> float:
    """Return ``value`` as a float, or raise ParameterError naming ``name``.

    ``value`` must be an int or a float (numpy.float64 is one), not a
    bool, and finite; comparing against the largest float also rejects
    ints too large to convert.  It must also satisfy ``value <bound> 0``,
    with ``bound`` one of ">", ">=" or "!=".

    A sweep cell's alpha and k pass through here once per cell, so a plain
    float skips the type tests and comes back as itself, and messages are
    built only on failure.
    """
    if (
        value.__class__ is not float
        and (isinstance(value, bool) or not isinstance(value, (int, float)))
    ) or not _NEG_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise ParameterError(f"{name!r} must be a finite real number, got {value!r}")
    if not _BOUNDS[bound](value, 0.0):
        raise ParameterError(f"{name!r} must be {bound} 0, got {value!r}")
    return value if value.__class__ is float else float(value)
