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
from typing import Optional

from .errors import ParameterError
from .model import ModelParams, State, _Record, _rhs


class EquilibriumKind(enum.Enum):
    INNER = "inner"
    EXTINCTION = "extinction"
    UNINFECTED_ONLY = "uninfected_only"
    INFECTED_ONLY = "infected_only"


class Equilibrium(_Record):
    point: State
    kind: EquilibriumKind


def residual(params: ModelParams, point: State) -> float:
    """Max-norm of the vector field at ``point`` (0 for an exact equilibrium)."""
    return max(map(abs, _rhs(params, point.C, point.I, point.V)))


def _over_product(x, u, v, w=None):
    """x / (u*v), or x / (u*v*w) when w is given, for positive scalars
    u, v and w, divided one factor at a time when the product underflows
    to 0."""
    uvw = u * v if w is None else u * v * w
    if uvw != 0.0:
        return x / uvw
    x = x / u / v
    return x if w is None else x / w


def _inner_point(p: ModelParams, alpha: float, k: float) -> Optional[tuple]:
    # (C, I, V, det) for inner_equilibrium's point and the reduced
    # system's determinant, or None, at (alpha, k) in place of p.alpha
    # and p.k: the one solve behind a sweep cell, a probe and a verdict.
    akm = alpha * k * p.m
    a12 = p.b12 + _over_product(akm, p.a, p.sigma)
    a21 = p.a_I * p.b21 - akm / p.sigma
    a22 = p.a_I * p.b22
    det = p.b11 * a22 - a12 * a21
    if det == 0.0:
        return None
    r2 = p.a_I - p.m
    C = (a22 - a12 * r2) / det
    I = (p.b11 * r2 - a21) / det
    V = k * p.m * I / p.sigma
    if C > 0.0 and I > 0.0 and V > 0.0:
        return C, I, V, det
    return None


def _own_inner_point(params: ModelParams, eq: Equilibrium) -> tuple:
    """_inner_point's (C, I, V, det) for params, which ``eq`` must hold
    point for point in floats; ParameterError otherwise."""
    s = eq.point  # may hold numpy scalars
    solved = _inner_point(params, params.alpha, params.k)
    if solved is None or solved[:3] != (s.C, s.I, s.V):
        raise ParameterError(f"eq is not the inner equilibrium of params, got {eq.point}")
    return solved


def inner_equilibrium(params: ModelParams) -> Optional[Equilibrium]:
    """Coexistence equilibrium with all three coordinates positive.

    Solves the reduced 2x2 system by Cramer's rule and recovers
    V = k*m*I/sigma.  Returns None when the determinant is 0 or when C,
    I or V is not > 0 (NaN included): float signs, with no tolerance
    and so no dependence on the units.
    """
    point = _inner_point(params, params.alpha, params.k)
    if point is None:
        return None
    return Equilibrium(State(*point[:3]), EquilibriumKind.INNER)


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
