"""Closed-form equilibria of the model.

Setting the virus equation to zero gives V = k*m*I/sigma; substituting
into the two cell equations leaves a 2x2 linear system for (C, I):

    b11*C + (b12 + alpha*k*m/(a*sigma))*I          = 1
    (a_I*b21 - alpha*k*m/sigma)*C + a_I*b22*I      = a_I - m

Its solution, when it lands strictly inside the positive octant, is the
coexistence ("inner") equilibrium.  The boundary equilibria are the
origin, the virus-free state C = 1/b11, and the target-cell-free state
that exists only while infected cells are self-sustaining (a_I > m).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .errors import ParameterError
from .model import ModelParams, State, vector_field

# Inner solutions this close to (or past) the octant boundary are
# reported as absent rather than returned as spurious equilibria.
POSITIVITY_FLOOR = 1e-12

# Relative singularity threshold for the reduced 2x2 system.
SINGULAR_RTOL = 1e-14


class EquilibriumKind(enum.Enum):
    INNER = "inner"
    EXTINCTION = "extinction"
    UNINFECTED_ONLY = "uninfected_only"
    INFECTED_ONLY = "infected_only"


@dataclass(frozen=True)
class Equilibrium:
    point: State
    kind: EquilibriumKind
    residual: float


def residual(params: ModelParams, point: State) -> float:
    """Max-norm of the vector field at ``point`` (0 for an exact equilibrium)."""
    d = vector_field(params, point)
    return max(abs(d.dC), abs(d.dI), abs(d.dV))


def _make(params: ModelParams, point: State, kind: EquilibriumKind) -> Equilibrium:
    return Equilibrium(point=point, kind=kind, residual=residual(params, point))


def inner_equilibrium(params: ModelParams) -> Optional[Equilibrium]:
    """Coexistence equilibrium with all three coordinates positive.

    Solves the reduced 2x2 system by Cramer's rule and recovers
    V = k*m*I/sigma.  Returns None when the system is singular
    (relative determinant below ``SINGULAR_RTOL``) or when any
    coordinate is not above ``POSITIVITY_FLOOR`` (NaN included).
    """
    p = params
    a11 = p.b11
    a12 = p.b12 + p.alpha * p.k * p.m / (p.a * p.sigma)
    a21 = p.a_I * p.b21 - p.alpha * p.k * p.m / p.sigma
    a22 = p.a_I * p.b22
    r1 = 1.0
    r2 = p.a_I - p.m

    det = a11 * a22 - a12 * a21
    scale = abs(a11 * a22) + abs(a12 * a21)
    if scale == 0.0 or abs(det) < SINGULAR_RTOL * scale:
        return None

    C = (r1 * a22 - a12 * r2) / det
    I = (a11 * r2 - a21 * r1) / det
    V = p.k * p.m * I / p.sigma
    if not (C > POSITIVITY_FLOOR and I > POSITIVITY_FLOOR and V > POSITIVITY_FLOOR):
        return None
    return _make(params, State(C, I, V), EquilibriumKind.INNER)


def boundary_equilibria(params: ModelParams) -> list:
    """Equilibria on the boundary of the positive octant.

    Always contains the extinction state (0, 0, 0) and the virus-free
    state (1/b11, 0, 0); the infected-only state is appended when the
    infected population is viable on its own (a_I > m).
    """
    p = params
    out = [
        _make(params, State(0.0, 0.0, 0.0), EquilibriumKind.EXTINCTION),
        _make(params, State(1.0 / p.b11, 0.0, 0.0), EquilibriumKind.UNINFECTED_ONLY),
    ]
    if p.a_I > p.m:
        I = (p.a_I - p.m) / (p.a_I * p.b22)
        V = p.k * p.m * I / p.sigma
        out.append(_make(params, State(0.0, I, V), EquilibriumKind.INFECTED_ONLY))
    return out


def all_equilibria(params: ModelParams) -> list:
    """Inner equilibrium (when present) followed by the boundary ones."""
    eqs = []
    inner = inner_equilibrium(params)
    if inner is not None:
        eqs.append(inner)
    eqs.extend(boundary_equilibria(params))
    return eqs
