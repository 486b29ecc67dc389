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


@dataclass(frozen=True)
class StabilityReport:
    cubic: CubicCoeffs
    verdict: Verdict
    margins: tuple  # (p, r, p*q - r), each positive when stable


def _hurwitz(p, q, r) -> tuple:
    """Hurwitz margins with the Unstable and Stable flags; p, q and r
    may be floats or arrays (the flags then are boolean arrays)."""
    margins = (p, r, p * q - r)
    m0, m1, m2 = margins
    unstable = (m0 < -MARGINAL_TOL) | (m1 < -MARGINAL_TOL) | (m2 < -MARGINAL_TOL)
    stable = (m0 > MARGINAL_TOL) & (m1 > MARGINAL_TOL) & (m2 > MARGINAL_TOL)
    return margins, unstable, stable


def _verdict(unstable: bool, stable: bool) -> Verdict:
    return Verdict.UNSTABLE if unstable else Verdict.STABLE if stable else Verdict.MARGINAL


def routh_hurwitz_cubic(cubic: CubicCoeffs) -> StabilityReport:
    """Classify a monic cubic by the sign pattern of its Hurwitz margins."""
    margins, unstable, stable = _hurwitz(cubic.p, cubic.q, cubic.r)
    return StabilityReport(cubic=cubic, verdict=_verdict(unstable, stable), margins=margins)


def classify_equilibrium(params: ModelParams, eq: Equilibrium) -> StabilityReport:
    """Routh-Hurwitz verdict for the linearization at an equilibrium."""
    s = eq.point  # may hold numpy scalars (a trajectory's row); the report holds floats
    entries = _jacobian_entries(params, params.alpha, params.k, float(s.C), float(s.I), float(s.V))
    return routh_hurwitz_cubic(CubicCoeffs(*_cubic_coeffs(*entries)))


def _equilibrium_verdict(params: ModelParams, alpha, k, C, I, V) -> Verdict:
    # classify_equilibrium's verdict at the equilibrium (C, I, V) of
    # params with (alpha, k) in place of params.alpha and params.k,
    # without the report the sweep discards.
    cubic = _cubic_coeffs(*_jacobian_entries(params, alpha, k, C, I, V))
    _, unstable, stable = _hurwitz(*cubic)
    return _verdict(unstable, stable)
