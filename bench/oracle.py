"""Reference mathematics for checking retrodyn's outputs.

Everything here is written from the model equations alone and imports
nothing from the package, so a defect in the package cannot hide by
also appearing in its own check.  Parameters are plain dicts keyed by
the ten parameter names.
"""

from __future__ import annotations

import math

import numpy as np

# Verdicts within this share of the largest root magnitude from the
# imaginary axis are not checked: the package's marginal band and
# rounding may legitimately decide them either way.
ROOT_BAND = 1e-7

# An inner equilibrium whose smallest coordinate lies within this share
# of its largest one from zero is not checked for existence.
EXISTENCE_BAND = 1e-8


def rhs(p: dict, C: float, I: float, V: float) -> tuple:
    infection = p["alpha"] * C * V
    return (
        p["a"] * C * (1.0 - p["b11"] * C - p["b12"] * I) - infection,
        p["a_I"] * I * (1.0 - p["b21"] * C - p["b22"] * I) + infection - p["m"] * I,
        p["k"] * p["m"] * I - p["sigma"] * V,
    )


def rhs_scale(p: dict, C: float, I: float, V: float) -> tuple:
    """Sum of the absolute values of the terms of each equation, the
    natural yardstick for a residual."""
    aC, aI, aV = abs(C), abs(I), abs(V)
    infection = p["alpha"] * aC * aV
    return (
        p["a"] * aC * (1.0 + p["b11"] * aC + p["b12"] * aI) + infection,
        p["a_I"] * aI * (1.0 + p["b21"] * aC + p["b22"] * aI) + infection + p["m"] * aI,
        p["k"] * p["m"] * aI + p["sigma"] * aV,
    )


def relative_residual(p: dict, C: float, I: float, V: float) -> float:
    f = rhs(p, C, I, V)
    s = rhs_scale(p, C, I, V)
    return max(abs(fi) / si if si > 0.0 else abs(fi) for fi, si in zip(f, s))


def jacobian(p: dict, C: float, I: float, V: float) -> np.ndarray:
    return np.array(
        [
            [p["a"] * (1 - 2 * p["b11"] * C - p["b12"] * I) - p["alpha"] * V,
             -p["a"] * p["b12"] * C,
             -p["alpha"] * C],
            [-p["a_I"] * p["b21"] * I + p["alpha"] * V,
             p["a_I"] * (1 - p["b21"] * C - 2 * p["b22"] * I) - p["m"],
             p["alpha"] * C],
            [0.0, p["k"] * p["m"], -p["sigma"]],
        ]
    )


def inner(p: dict):
    """Coexistence equilibrium from the reduced 2x2 system.

    Returns ``(point, exists)`` where ``exists`` is True, False, or None
    when the answer sits too close to the octant boundary (or the system
    is too close to singular) to be decided independently.
    """
    akm = p["alpha"] * p["k"] * p["m"] / p["sigma"]
    M = np.array([[p["b11"], p["b12"] + akm / p["a"]],
                  [p["a_I"] * p["b21"] - akm, p["a_I"] * p["b22"]]])
    if np.linalg.cond(M) > 1e10:
        return None, None
    C, I = np.linalg.solve(M, np.array([1.0, p["a_I"] - p["m"]]))
    V = p["k"] * p["m"] * I / p["sigma"]
    point = (float(C), float(I), float(V))
    low, high = min(point), max(abs(x) for x in point)
    if abs(low) <= EXISTENCE_BAND * high:
        return point, None
    return point, low > 0.0


def max_real_part(p: dict, point) -> tuple:
    """Largest real part of the Jacobian's eigenvalues, from numpy.roots
    of its characteristic cubic, and the largest root magnitude."""
    J = jacobian(p, *point)
    minors = (J[1, 1] * J[2, 2] - J[1, 2] * J[2, 1]
              + J[0, 0] * J[2, 2] - J[0, 2] * J[2, 0]
              + J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0])
    roots = np.roots([1.0, -np.trace(J), minors, -np.linalg.det(J)])
    return float(np.max(roots.real)), float(np.max(np.abs(roots)))


def verdict(p: dict, point):
    """'Stable', 'Unstable', or None inside the undecided band."""
    re, size = max_real_part(p, point)
    if abs(re) <= ROOT_BAND * max(size, 1e-300):
        return None
    return "Stable" if re < 0.0 else "Unstable"


def rk4(p: dict, y: tuple, h: float) -> tuple:
    k1 = rhs(p, *y)
    k2 = rhs(p, *(y[i] + 0.5 * h * k1[i] for i in range(3)))
    k3 = rhs(p, *(y[i] + 0.5 * h * k2[i] for i in range(3)))
    k4 = rhs(p, *(y[i] + h * k3[i] for i in range(3)))
    return tuple(y[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(3))


def _v(s: float) -> float:
    return s - math.log(s) - 1.0


def w_and_wdot(p: dict, weights: tuple, eq: tuple, y: tuple) -> tuple:
    """W and dW/dt at ``y``, each with a yardstick for its rounding error."""
    terms_w = [w * (yi / ei + abs(math.log(yi / ei)) + 1.0) for w, yi, ei in zip(weights, y, eq)]
    w_value = sum(w * _v(yi / ei) for w, yi, ei in zip(weights, y, eq))
    f, s = rhs(p, *y), rhs_scale(p, *y)
    factors = [w * (1.0 - ei / yi) / ei for w, yi, ei in zip(weights, y, eq)]
    w_dot = sum(c * fi for c, fi in zip(factors, f))
    return w_value, w_dot, sum(terms_w), sum(abs(c) * si for c, si in zip(factors, s))
