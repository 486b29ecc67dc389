"""Core model definition: parameters, state, vector field and linearization.

The model tracks three interacting populations,

    C : uninfected target cells
    I : infected cells (still able to reproduce)
    V : free virus particles

with dynamics

    dC/dt = a  * C * (1 - b11*C - b12*I) - alpha*C*V
    dI/dt = a_I* I * (1 - b21*C - b22*I) + alpha*C*V - m*I
    dV/dt = k*m*I - sigma*V

Both cell populations grow logistically with competitive cross terms,
mass-action infection (alpha*C*V) converts target cells into infected
ones, infected cells die at rate m releasing k virions each, and free
virus clears at rate sigma.

This module holds the plain data types plus the three purely local
operations on them: the right-hand side, its Jacobian, and the
characteristic cubic of a 3x3 matrix.  The algebra runs on Python
floats; numpy is imported only by the functions that build or read an
array (``as_array``, ``jacobian`` and ``char_cubic``), so importing the
package does not load it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ParameterError, _checked_float

if TYPE_CHECKING:
    import numpy as np

PARAM_NAMES = ("a", "a_I", "b11", "b12", "b21", "b22", "alpha", "m", "k", "sigma")

# b12, b21 and alpha may be zero, which decouples the corresponding
# term; every other parameter must be strictly positive.
_BOUND = {name: ">=" if name in ("b12", "b21", "alpha") else ">" for name in PARAM_NAMES}


@dataclass(frozen=True)
class ModelParams:
    """Immutable parameter set.

    a, a_I        per-capita growth rates of target / infected cells
    b11, b12      self- and cross-limitation felt by target cells
    b21, b22      cross- and self-limitation felt by infected cells
    alpha         infection rate constant (>= 0)
    m             infected cell death rate
    k             burst size (virions released per dead infected cell)
    sigma         virus clearance rate
    """

    a: float
    a_I: float
    b11: float
    b12: float
    b21: float
    b22: float
    alpha: float
    m: float
    k: float
    sigma: float

    def __post_init__(self):
        for name, bound in _BOUND.items():
            object.__setattr__(self, name, _checked_float(name, getattr(self, name), bound))

    def replace(self, **changes) -> "ModelParams":
        """Return a copy with the given fields replaced, checked as the constructor checks them."""
        for name in changes:
            if name not in _BOUND:
                raise ParameterError(f"{name!r} is not a model parameter")
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class State:
    """A point (C, I, V) in phase space."""

    C: float
    I: float
    V: float

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([self.C, self.I, self.V], dtype=float)


@dataclass(frozen=True)
class Derivative:
    """Value of the vector field at a state."""

    dC: float
    dI: float
    dV: float

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([self.dC, self.dI, self.dV], dtype=float)


@dataclass(frozen=True)
class CubicCoeffs:
    """Coefficients of a monic cubic x^3 + p*x^2 + q*x + r."""

    p: float
    q: float
    r: float


def _rhs(p: ModelParams, C: float, I: float, V: float) -> tuple:
    # Integrator hot path on plain floats; the Lyapunov trace passes whole columns.
    # Float literals, here and in lyapunov._w_dot: x - 1.0 takes ~16 ns, x - 1
    # ~35 ns (CPython 3.11, timeit, one pinned CPU), so neither is exact on Fractions.
    infection = p.alpha * C * V
    dC = p.a * C * (1.0 - p.b11 * C - p.b12 * I) - infection
    dI = p.a_I * I * (1.0 - p.b21 * C - p.b22 * I) + infection - p.m * I
    dV = p.k * p.m * I - p.sigma * V
    return dC, dI, dV


def vector_field(params: ModelParams, s: State) -> Derivative:
    """Evaluate the right-hand side of the model at state ``s``."""
    dC, dI, dV = _rhs(params, s.C, s.I, s.V)
    return Derivative(dC, dI, dV)


def _jacobian_entries(p: ModelParams, C, I, V) -> tuple:
    # Row-major entries of the Jacobian at any point (C, I, V); the sweep
    # decides the inner state through stability._reduced_cubic instead.
    # Int literals keep Fraction inputs exact.
    return (
        p.a * (1 - 2 * p.b11 * C - p.b12 * I) - p.alpha * V,
        -p.a * p.b12 * C,
        -p.alpha * C,
        -p.a_I * p.b21 * I + p.alpha * V,
        p.a_I * (1 - p.b21 * C - 2 * p.b22 * I) - p.m,
        p.alpha * C,
        0,
        p.k * p.m,
        -p.sigma,
    )


def jacobian(params: ModelParams, s: State) -> np.ndarray:
    """Jacobian matrix of the vector field at ``s``, ordered (C, I, V).

    Returns:
        (3, 3) float array J with J[i][j] = d f_i / d s_j.
    """
    import numpy as np

    entries = _jacobian_entries(params, s.C, s.I, s.V)
    return np.array(entries, dtype=float).reshape(3, 3)


def _cubic_coeffs(j00, j01, j02, j10, j11, j12, j20, j21, j22) -> tuple:
    # (p, q, r) of char_cubic from the row-major Jacobian entries.
    p = -(j00 + j11 + j22)
    q = (
        (j11 * j22 - j12 * j21)
        + (j00 * j22 - j02 * j20)
        + (j00 * j11 - j01 * j10)
    )
    det = (
        j00 * (j11 * j22 - j12 * j21)
        - j01 * (j10 * j22 - j12 * j20)
        + j02 * (j10 * j21 - j11 * j20)
    )
    return p, q, -det


def char_cubic(J: np.ndarray) -> CubicCoeffs:
    """Characteristic polynomial det(lambda*Id - J) of a 3x3 matrix.

    Returned as the coefficients (p, q, r) of lambda^3 + p*lambda^2
    + q*lambda + r:

        p = -trace(J)
        q =  sum of the three principal 2x2 minors
        r = -det(J)

    The determinant is expanded explicitly so the result is a fixed,
    reproducible floating-point expression.
    """
    import numpy as np

    J = np.asarray(J, dtype=float)
    if J.shape != (3, 3):
        raise ParameterError(f"expected a 3x3 matrix, got shape {J.shape}")
    # Python floats: the same operations as on numpy scalars, without
    # their per-operation cost or their overflow warnings.
    p, q, r = _cubic_coeffs(*J.ravel().tolist())
    return CubicCoeffs(p=p, q=q, r=r)
