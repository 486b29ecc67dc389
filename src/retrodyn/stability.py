"""Local stability via the Routh-Hurwitz test for cubics.

For a monic cubic lambda^3 + p*lambda^2 + q*lambda + r all roots lie in
the open left half-plane iff

    p > 0,   r > 0,   p*q - r > 0.

The three left-hand sides are reported as margins; a margin inside the
band [-MARGINAL_TOL, MARGINAL_TOL] makes the verdict Marginal rather
than committing to either side, and so does a NaN margin when no other
margin is clearly negative.

Every verdict on an equilibrium, from ``classify_equilibrium`` or a
sweep cell, takes its cubic from the float kernels ``_jacobian_entries``
and ``_cubic_coeffs``: the bits of ``char_cubic(jacobian(...))``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .equilibria import Equilibrium
from .model import CubicCoeffs, ModelParams, _cubic_coeffs, _jacobian_entries

MARGINAL_TOL = 1e-12


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


@dataclass(frozen=True)
class StabilityReport:
    cubic: CubicCoeffs
    verdict: Verdict
    margins: tuple  # (p, r, p*q - r), each positive when stable


def _hurwitz(p, q, r) -> tuple:
    """Hurwitz margins and the verdict they give.  A NaN margin fails
    both comparisons, so it leaves the verdict Marginal unless another
    margin is below -MARGINAL_TOL."""
    margins = (p, r, p * q - r)
    m0, m1, m2 = margins
    if m0 < -MARGINAL_TOL or m1 < -MARGINAL_TOL or m2 < -MARGINAL_TOL:
        verdict = _UNSTABLE
    elif m0 > MARGINAL_TOL and m1 > MARGINAL_TOL and m2 > MARGINAL_TOL:
        verdict = _STABLE
    else:
        verdict = _MARGINAL
    return margins, verdict


def routh_hurwitz_cubic(cubic: CubicCoeffs) -> StabilityReport:
    """Classify a monic cubic by the sign pattern of its Hurwitz margins."""
    margins, verdict = _hurwitz(cubic.p, cubic.q, cubic.r)
    return StabilityReport(cubic=cubic, verdict=verdict, margins=margins)


def classify_equilibrium(params: ModelParams, eq: Equilibrium) -> StabilityReport:
    """Routh-Hurwitz verdict for the linearization at an equilibrium."""
    s = eq.point  # may hold numpy scalars (a trajectory's row); the report holds floats
    entries = _jacobian_entries(params, params.alpha, params.k, float(s.C), float(s.I), float(s.V))
    return routh_hurwitz_cubic(CubicCoeffs(*_cubic_coeffs(*entries)))


def _equilibrium_verdict(params: ModelParams, alpha, k, C, I, V) -> Verdict:
    # classify_equilibrium's verdict at the equilibrium (C, I, V) of
    # params with (alpha, k) in place of params.alpha and params.k,
    # without the report the sweep discards.
    return _hurwitz(*_cubic_coeffs(*_jacobian_entries(params, alpha, k, C, I, V)))[1]
