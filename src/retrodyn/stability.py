"""Local stability via the Routh-Hurwitz test for cubics.

For a monic cubic lambda^3 + p*lambda^2 + q*lambda + r all roots lie in
the open left half-plane iff

    p > 0,   r > 0,   p*q - r > 0.

The three left-hand sides are reported as margins; a margin inside the
band [-MARGINAL_TOL, MARGINAL_TOL] makes the verdict Marginal rather
than committing to either side, and so does a NaN margin when no other
margin is clearly negative.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .equilibria import Equilibrium
from .model import CubicCoeffs, ModelParams, char_cubic, jacobian

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


def routh_hurwitz_cubic(cubic: CubicCoeffs) -> StabilityReport:
    """Classify a monic cubic by the sign pattern of its Hurwitz margins."""
    margins = (cubic.p, cubic.r, cubic.p * cubic.q - cubic.r)
    if any(m < -MARGINAL_TOL for m in margins):
        verdict = Verdict.UNSTABLE
    elif all(m > MARGINAL_TOL for m in margins):
        verdict = Verdict.STABLE
    else:
        verdict = Verdict.MARGINAL
    return StabilityReport(cubic=cubic, verdict=verdict, margins=margins)


def classify_equilibrium(params: ModelParams, eq: Equilibrium) -> StabilityReport:
    """Routh-Hurwitz verdict for the linearization at an equilibrium."""
    return routh_hurwitz_cubic(char_cubic(jacobian(params, eq.point)))
