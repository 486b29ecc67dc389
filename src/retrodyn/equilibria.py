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
from .model import ModelParams, State, _rhs

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


def residual(params: ModelParams, point: State) -> float:
    """Max-norm of the vector field at ``point`` (0 for an exact equilibrium)."""
    return max(map(abs, _rhs(params, point.C, point.I, point.V)))


def _over_product(x, u, v, w=1.0):
    """x / (u*v*w) for positive scalars u, v and w, divided one factor
    at a time when the product underflows to 0.  x may be an array.
    The default w = 1.0 changes no bit of x / (u*v)."""
    uvw = u * v * w
    return x / uvw if uvw != 0.0 else x / u / v / w


# Kernels of inner_equilibrium.  alpha and k may be floats or
# broadcastable arrays (a whole sweep grid), with the same bits in each
# element; the other parameters come from p.  On arrays a caller
# ignores floating-point errors and masks the cells, where on floats
# inner_equilibrium returns early.
def _reduced_system(p: ModelParams, alpha, k):
    """The reduced 2x2 system as (a11, a12, a21, a22, det), and whether
    it counts as singular."""
    akm = alpha * k * p.m
    a11 = p.b11
    a12 = p.b12 + _over_product(akm, p.a, p.sigma)
    a21 = p.a_I * p.b21 - akm / p.sigma
    a22 = p.a_I * p.b22
    det = a11 * a22 - a12 * a21
    scale = abs(a11 * a22) + abs(a12 * a21)
    return (a11, a12, a21, a22, det), (scale == 0.0) | (abs(det) < SINGULAR_RTOL * scale)


def _cramer_solution(p: ModelParams, k, a11, a12, a21, a22, det):
    """(C, I, V) of a nonsingular reduced system, and whether all
    three lie above POSITIVITY_FLOOR."""
    r2 = p.a_I - p.m  # the right-hand side is (1, r2)
    C = (a22 - a12 * r2) / det
    I = (a11 * r2 - a21) / det
    V = k * p.m * I / p.sigma
    return C, I, V, (C > POSITIVITY_FLOOR) & (I > POSITIVITY_FLOOR) & (V > POSITIVITY_FLOOR)


def _inner_point(p: ModelParams, alpha: float, k: float) -> Optional[tuple]:
    # inner_equilibrium's point as floats (C, I, V), or None, at (alpha, k)
    # in place of p.alpha and p.k; the sweep calls it once per cell.
    system, singular = _reduced_system(p, alpha, k)
    if singular:
        return None
    C, I, V, positive = _cramer_solution(p, k, *system)
    return (C, I, V) if positive else None


def inner_equilibrium(params: ModelParams) -> Optional[Equilibrium]:
    """Coexistence equilibrium with all three coordinates positive.

    Solves the reduced 2x2 system by Cramer's rule and recovers
    V = k*m*I/sigma.  Returns None when the system is singular
    (relative determinant below ``SINGULAR_RTOL``) or when any
    coordinate is not above ``POSITIVITY_FLOOR`` (NaN included).
    """
    point = _inner_point(params, params.alpha, params.k)
    if point is None:
        return None
    return Equilibrium(State(*point), EquilibriumKind.INNER)


def boundary_equilibria(params: ModelParams) -> list:
    """Equilibria on the boundary of the positive octant.

    Always contains the extinction state (0, 0, 0) and the virus-free
    state (1/b11, 0, 0); the infected-only state is appended when the
    infected population is viable on its own (a_I > m).
    """
    p = params
    out = [
        Equilibrium(State(0.0, 0.0, 0.0), EquilibriumKind.EXTINCTION),
        Equilibrium(State(1.0 / p.b11, 0.0, 0.0), EquilibriumKind.UNINFECTED_ONLY),
    ]
    if p.a_I > p.m:
        I = _over_product(p.a_I - p.m, p.a_I, p.b22)
        V = p.k * p.m * I / p.sigma
        out.append(Equilibrium(State(0.0, I, V), EquilibriumKind.INFECTED_ONLY))
    return out


def all_equilibria(params: ModelParams) -> list:
    """Inner equilibrium (when present) followed by the boundary ones."""
    eqs = []
    inner = inner_equilibrium(params)
    if inner is not None:
        eqs.append(inner)
    eqs.extend(boundary_equilibria(params))
    return eqs
