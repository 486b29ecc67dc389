"""Volterra-type Lyapunov function for the coexistence equilibrium.

With v(s) = s - ln(s) - 1 and positive weights (A, B, D) the candidate

    W(C, I, V) = A*v(C/C^) + B*v(I/I^) + D*v(V/V^)

vanishes at the inner equilibrium (C^, I^, V^) and is positive
elsewhere in the open octant.  Its derivative along trajectories is,
identically in the state, the negative of a quadratic form

    -dW/dt = d . Omega(s) . d,     d = (V - V^, I - I^, C - C^),

whose symmetric coefficient matrix Omega depends on the current state
through the occupied populations:

    omega11 = D*sigma/(V*V^)
    omega22 = B*(a_I*b22/I^ + alpha*C^*V^/(I*I^^2))
    omega33 = A*a*b11/C^
    omega12 = -(B*alpha*C^/(I*I^) + D*k*m/(V*V^)) / 2
    omega13 = A*alpha/C^ / 2
    omega23 = (A*a*b12/C^ + B*a_I*b21/I^ - B*alpha*V/(I*I^)) / 2

Positive definiteness of Omega (checked through the leading principal
minors, Sylvester's criterion) certifies that W decays, i.e. local
asymptotic stability with an explicit basin estimate.  A scalar
sufficient condition on the equilibrium alone ("condition4") and a grid
search for weights that make Omega definite are also provided.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .equilibria import Equilibrium, EquilibriumKind
from .errors import DomainError, ParameterError, _checked_float
from .model import ModelParams, State, _rhs

# The weights A and B that search_coeffs tries: 41 log-spaced values in [1e-3, 1e3].
_WEIGHTS = np.logspace(-3.0, 3.0, 41)


@dataclass(frozen=True)
class LyapunovCoeffs:
    """Positive weights (A, B, D) of the C, I and V terms of W."""

    A: float
    B: float
    D: float

    def __post_init__(self):
        for name in ("A", "B", "D"):
            object.__setattr__(self, name, _checked_float(name, getattr(self, name), ">"))


@dataclass(frozen=True)
class OmegaForm:
    """Symmetric quadratic form in the deviations (V - V^, I - I^, C - C^).

    delta1..delta3 are the leading principal minors in that ordering;
    all three positive means the form is positive definite.
    """

    omega11: float
    omega22: float
    omega33: float
    omega12: float
    omega13: float
    omega23: float
    evaluated_at: State
    delta1: float = field(init=False)
    delta2: float = field(init=False)
    delta3: float = field(init=False)

    def __post_init__(self):
        d1, d2, d3 = _minors(
            self.omega11, self.omega22, self.omega33,
            self.omega12, self.omega13, self.omega23,
        )
        object.__setattr__(self, "delta1", float(d1))
        object.__setattr__(self, "delta2", float(d2))
        object.__setattr__(self, "delta3", float(d3))

    @property
    def positive_definite(self) -> bool:
        return self.delta1 > 0.0 and self.delta2 > 0.0 and self.delta3 > 0.0

    def as_matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.omega11, self.omega12, self.omega13],
                [self.omega12, self.omega22, self.omega23],
                [self.omega13, self.omega23, self.omega33],
            ],
            dtype=float,
        )

    def value(self, d: np.ndarray) -> float:
        """Evaluate d . Omega . d for a deviation vector d = (dV, dI, dC)."""
        dV, dI, dC = float(d[0]), float(d[1]), float(d[2])
        return (
            self.omega11 * dV * dV
            + self.omega22 * dI * dI
            + self.omega33 * dC * dC
            + 2.0 * (self.omega12 * dV * dI + self.omega13 * dV * dC + self.omega23 * dI * dC)
        )


class Condition4Variant(enum.Enum):
    AS_WRITTEN = "as-written"
    CORRECTED = "corrected"


@dataclass(frozen=True)
class Condition4Report:
    lhs: float
    rhs: float
    holds: bool
    variant: Condition4Variant


def volterra(s: float) -> float:
    """v(s) = s - ln(s) - 1; nonnegative on (0, inf), zero only at s = 1."""
    if not s > 0.0:
        raise DomainError(f"volterra term needs a positive argument, got {s!r}")
    return s - math.log(s) - 1.0


def _require_inner(eq: Equilibrium):
    if eq.kind is not EquilibriumKind.INNER:
        raise ParameterError(f"expected the inner equilibrium, got kind {eq.kind.value!r}")


def _require_positive(s: State):
    if not (s.C > 0.0 and s.I > 0.0 and s.V > 0.0):
        raise DomainError(f"state must lie in the open positive octant, got {s!r}")


# Unchecked kernels on plain floats, shared by w_value/w_dot and the
# integrator's trace; pt is the inner equilibrium's point.
def _w(coeffs, pt, C, I, V):
    return (
        coeffs.A * volterra(C / pt.C)
        + coeffs.B * volterra(I / pt.I)
        + coeffs.D * volterra(V / pt.V)
    )


def _w_dot(params, coeffs, pt, C, I, V):
    dC, dI, dV = _rhs(params, C, I, V)
    return (
        coeffs.A * (1.0 - pt.C / C) * dC / pt.C
        + coeffs.B * (1.0 - pt.I / I) * dI / pt.I
        + coeffs.D * (1.0 - pt.V / V) * dV / pt.V
    )


def w_value(coeffs: LyapunovCoeffs, eq: Equilibrium, s: State) -> float:
    """W(s) relative to the inner equilibrium."""
    _require_inner(eq)
    _require_positive(s)
    return _w(coeffs, eq.point, s.C, s.I, s.V)


def w_dot(params: ModelParams, coeffs: LyapunovCoeffs, eq: Equilibrium, s: State) -> float:
    """Derivative of W along the flow, evaluated directly at state ``s``."""
    _require_inner(eq)
    _require_positive(s)
    return _w_dot(params, coeffs, eq.point, s.C, s.I, s.V)


def _omega_entries(params, A, B, D, eq_point, at_point):
    # Shared by the scalar and the vectorized (grid search) callers:
    # A, B, D may be floats or broadcastable arrays.
    p = params
    Ch, Ih, Vh = eq_point
    C, I, V = at_point
    w11 = D * p.sigma / (V * Vh)
    w22 = B * (p.a_I * p.b22 / Ih + p.alpha * Ch * Vh / (I * Ih * Ih))
    w33 = A * (p.a * p.b11 / Ch)
    w12 = -0.5 * (B * p.alpha * Ch / (I * Ih) + D * p.k * p.m / (V * Vh))
    w13 = 0.5 * A * p.alpha / Ch
    w23 = 0.5 * (A * p.a * p.b12 / Ch + B * p.a_I * p.b21 / Ih - B * p.alpha * V / (I * Ih))
    return w11, w22, w33, w12, w13, w23


def _minors(w11, w22, w33, w12, w13, w23):
    d1 = w11
    d2 = w11 * w22 - w12 * w12
    d3 = (
        w11 * (w22 * w33 - w23 * w23)
        - w12 * (w12 * w33 - w23 * w13)
        + w13 * (w12 * w23 - w22 * w13)
    )
    return d1, d2, d3


def omega_at(params: ModelParams, coeffs: LyapunovCoeffs, eq: Equilibrium, s: State) -> OmegaForm:
    """Coefficient matrix of the quadratic form -dW/dt at state ``s``."""
    _require_inner(eq)
    _require_positive(s)
    pt = eq.point
    w11, w22, w33, w12, w13, w23 = _omega_entries(
        params, coeffs.A, coeffs.B, coeffs.D, (pt.C, pt.I, pt.V), (s.C, s.I, s.V)
    )
    return OmegaForm(
        omega11=w11, omega22=w22, omega33=w33,
        omega12=w12, omega13=w13, omega23=w23,
        evaluated_at=s,
    )


def sylvester_minors(form: OmegaForm) -> Tuple[float, float, float]:
    """Leading principal minors (delta1, delta2, delta3) of the form."""
    return (form.delta1, form.delta2, form.delta3)


def condition4(
    params: ModelParams,
    eq: Equilibrium,
    variant: Condition4Variant = Condition4Variant.CORRECTED,
) -> Condition4Report:
    """Scalar sufficient condition for definiteness of Omega at the equilibrium.

    Compares a product of the two diagonal self-limitation brackets
    (lhs) against a squared cross-coupling term (rhs); ``holds`` means
    lhs > rhs.  The AS_WRITTEN variant squares (a*b12/C^ + b21/I^
    - V^2); CORRECTED replaces V^2 by alpha*V^, which restores the
    units of the other two summands.
    """
    _require_inner(eq)
    p = params
    Ch, Ih, Vh = eq.point.C, eq.point.I, eq.point.V
    bracket_I = p.a_I * p.b22 - (1.0 / Ih) * p.a_I * (1.0 - p.b21 * Ch - p.b22 * Ih) + p.m
    bracket_C = p.a * p.b11 - (1.0 / Ch) * p.a * (1.0 - p.b11 * Ch - p.b12 * Ih)
    lhs = (bracket_I / Ih) * (bracket_C / Ch)
    cross = p.a * p.b12 / Ch + p.b21 / Ih
    if variant is Condition4Variant.AS_WRITTEN:
        rhs = 0.25 * (cross - Vh * Vh) ** 2
    elif variant is Condition4Variant.CORRECTED:
        rhs = 0.25 * (cross - p.alpha * Vh) ** 2
    else:
        raise ParameterError(f"unknown condition variant {variant!r}")
    return Condition4Report(lhs=float(lhs), rhs=float(rhs), holds=bool(lhs > rhs), variant=variant)


def search_coeffs(params: ModelParams, eq: Equilibrium) -> Optional[Tuple[LyapunovCoeffs, OmegaForm]]:
    """Search a log grid of weights for a definite Omega at the equilibrium.

    D is pinned to 1 (scaling all three weights only rescales the
    minors, so nothing is lost), while A and B range over 41
    log-spaced values in [1e-3, 1e3].  The weight pair maximizing the
    smallest minor wins, and a pair whose minors overflow to NaN never
    does; None is returned when even the best pair leaves
    min(delta1..3) <= 0.
    """
    _require_inner(eq)
    pt = (eq.point.C, eq.point.I, eq.point.V)
    # Overflow on the grid is expected at extreme rates; its NaNs are kept out of the argmax.
    with np.errstate(over="ignore", invalid="ignore"):
        entries = _omega_entries(params, _WEIGHTS[:, None], _WEIGHTS[None, :], 1.0, pt, pt)
        d1, d2, d3 = _minors(*entries)
        score = np.minimum(np.minimum(d1, d2), d3)  # broadcasts to (A, B) grid
    score[np.isnan(score)] = -np.inf

    i, j = divmod(int(np.argmax(score)), len(_WEIGHTS))
    coeffs = LyapunovCoeffs(A=float(_WEIGHTS[i]), B=float(_WEIGHTS[j]), D=1.0)
    form = omega_at(params, coeffs, eq, eq.point)
    if not form.positive_definite:
        return None
    return coeffs, form
