"""Local stability via the Routh-Hurwitz test for cubics.

For a monic cubic lambda^3 + p*lambda^2 + q*lambda + r all roots lie in
the open left half-plane iff

    p > 0,   r > 0,   p*q - r > 0.

Every verdict is the signs of its margins, by one rule: any margin < 0
is Unstable; else every margin > 0 is Stable; else (a margin is 0 or
NaN) Marginal.  These are float signs with no band: a change of units
by powers of two scales each margin exactly (while nothing leaves the
normal range) and so moves no verdict.  ``routh_hurwitz_cubic`` applies
the rule to (p, r, p*q - r), for a caller's cubic and at a boundary
equilibrium.  At the inner equilibrium the Jacobian with the
equilibrium relations substituted in has p > 0 and
r = a*sigma*C^*I^*det, with det the reduced system's as the solve in
``equilibria._inner_point`` returns it, never 0 there.  So the rule
applies to (det, h): det < 0 is a saddle, and otherwise the sign of the
Hopf margin h = p*q - r decides.  Every cubic and margin reported comes
from the kernels ``_jacobian_entries`` and ``_cubic_coeffs``: the bits
of ``char_cubic(jacobian(...))``.
"""

from __future__ import annotations

import enum

from .equilibria import Equilibrium, EquilibriumKind, _own_inner_point
from .model import CubicCoeffs, ModelParams, _cubic_coeffs, _jacobian_entries, _Record


class Verdict(enum.Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    MARGINAL = "Marginal"

    # Each member is its own only instance (lookup by value, copy and
    # pickle all return it), so identity hashes as well as the name;
    # enum's own __hash__ is Python code run on every dict lookup.
    __hash__ = object.__hash__


# Bound once: on CPython 3.11 each Verdict.X lookup runs enum's
# descriptor in Python.
_STABLE, _UNSTABLE, _MARGINAL = Verdict.STABLE, Verdict.UNSTABLE, Verdict.MARGINAL


class StabilityReport(_Record):
    cubic: CubicCoeffs
    verdict: Verdict
    margins: tuple  # (p, r, p*q - r), each positive when stable


def routh_hurwitz_cubic(cubic: CubicCoeffs) -> StabilityReport:
    """Classify a monic cubic by the signs of its Hurwitz margins, by
    the module docstring's rule.  A NaN margin fails both comparisons,
    so it leaves the verdict Marginal unless another margin is < 0."""
    margins = (cubic.p, cubic.r, cubic.p * cubic.q - cubic.r)
    m0, m1, m2 = margins
    if m0 < 0 or m1 < 0 or m2 < 0:
        verdict = _UNSTABLE
    elif m0 > 0 and m1 > 0 and m2 > 0:
        verdict = _STABLE
    else:
        verdict = _MARGINAL
    return StabilityReport(cubic=cubic, verdict=verdict, margins=margins)


def classify_equilibrium(params: ModelParams, eq: Equilibrium) -> StabilityReport:
    """Routh-Hurwitz report for the linearization at an equilibrium.

    An INNER ``eq`` must be the inner equilibrium of ``params``, point for
    point in floats; otherwise ParameterError is raised.  Its verdict is
    the module docstring's rule on (det, h), so within rounding of zero
    a printed margin can disagree with it.
    """
    s = eq.point  # may hold numpy scalars; the report holds floats
    C, I, V = float(s.C), float(s.I), float(s.V)
    report = routh_hurwitz_cubic(CubicCoeffs(*_cubic_coeffs(*_jacobian_entries(params, C, I, V))))
    if eq.kind is not EquilibriumKind.INNER:
        return report
    solved = _own_inner_point(params, eq)
    return StabilityReport(report.cubic, _equilibrium_verdict(params, params.alpha, params.k, *solved), report.margins)


def _reduced_cubic(p: ModelParams, alpha, k, C, I, V, det) -> tuple:
    # (p, q, r) at the inner equilibrium (C, I, V) of p, (alpha, k) in
    # place of p.alpha and p.k, and det the reduced system's: on
    # Fractions, exactly _cubic_coeffs of the Jacobian there.
    x, y = p.a * p.b11 * C, p.a_I * p.b22 * I
    return (
        x + y + alpha * C * V / I + p.sigma,
        C * I * p.a * p.a_I * (p.b11 * p.b22 - p.b12 * p.b21) + p.sigma * (x + y)
        + alpha * k * p.m * C * (x + p.a * p.b12 * I) / p.sigma,
        p.a * p.sigma * C * I * det,
    )


def _equilibrium_verdict(params: ModelParams, alpha, k, C, I, V, det) -> Verdict:
    # The verdict at the inner equilibrium (C, I, V) of params with
    # (alpha, k) in place of params.alpha and params.k, and det the
    # reduced system's: the four values _inner_point returns.
    if det < 0.0:
        return _UNSTABLE
    p, q, r = _reduced_cubic(params, alpha, k, C, I, V, det)
    h = p * q - r
    return _STABLE if h > 0.0 else _UNSTABLE if h < 0.0 else _MARGINAL
