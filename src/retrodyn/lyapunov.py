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
minors, Sylvester's criterion) at the equilibrium certifies local
asymptotic stability only: no routine estimates a basin of attraction.
The paper's scalar condition 4 on the equilibrium alone ("condition4")
and a grid search for weights that make Omega definite are also
provided.  Condition 4 is not a sufficient condition: it can hold at an
unstable equilibrium, where no weights make Omega definite.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .equilibria import Equilibrium, EquilibriumKind, _over_product
from .errors import DomainError, ParameterError, _checked_float
from .model import ModelParams, State, _rhs

# The weights A and B that search_coeffs tries: 41 log-spaced values in [1e-3, 1e3].
_WEIGHTS = np.logspace(-3.0, 3.0, 41)
_WEIGHT_LIST = _WEIGHTS.tolist()
# Relative widening of each closed-form root before it is mapped onto the
# grid, so that a grid point within rounding of a root is still tried.
_ROOT_SLACK = 1e-9
# _grid_has_definite's closed forms are trusted only while Omega's
# entries per unit weight sum to less than _PART_MAX in magnitude and
# the diagonal products that set the scale of delta2 and delta3 exceed
# _SCALE_MIN: then no minor on the grid overflows or loses its
# precision to underflow.
_PART_MAX = 1e40
_SCALE_MIN = 1e-100


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
    """v(s) = s - ln(s) - 1; nonnegative on (0, inf), zero only at s = 1.

    A float array is taken element by element, its logs still from
    math.log (see :func:`retrodyn.integrator.lyapunov_trace`).
    """
    vector = isinstance(s, np.ndarray)
    ok = s > 0.0
    if not (ok.all() if vector else ok):
        bad = s[ok.argmin()].item() if vector else s
        raise DomainError(f"volterra term needs a positive argument, got {bad!r}")
    log = np.fromiter(map(math.log, s.tolist()), float, len(s)) if vector else math.log(s)
    return s - log - 1.0


def _require_inner(eq: Equilibrium):
    if eq.kind is not EquilibriumKind.INNER:
        raise ParameterError(f"expected the inner equilibrium, got kind {eq.kind.value!r}")


def _require_positive(s: State):
    if not (0.0 < s.C < math.inf and 0.0 < s.I < math.inf and 0.0 < s.V < math.inf):
        raise DomainError(f"state must lie in the open positive octant, got {s!r}")


# Unchecked kernels on plain floats (w_value/w_dot) or on whole columns
# (the integrator's trace); pt is the inner equilibrium's point.
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


def _omega_entries(params, alpha, k, A, B, D, eq_point, at_point):
    # Shared by the scalar and the vectorized (grid search) callers:
    # A, B, D may be floats or broadcastable arrays; alpha, k (in place
    # of params.alpha and params.k) and the points are floats, and a
    # product of coordinates that underflows to 0 is divided by one
    # factor at a time.
    p = params
    Ch, Ih, Vh = eq_point
    C, I, V = at_point
    w11 = _over_product(D * p.sigma, V, Vh)
    w22 = B * (p.a_I * p.b22 / Ih + _over_product(alpha * Ch * Vh, I, Ih, Ih))
    w33 = A * (p.a * p.b11 / Ch)
    w12 = -0.5 * (_over_product(B * alpha * Ch, I, Ih) + _over_product(D * k * p.m, V, Vh))
    w13 = 0.5 * A * alpha / Ch
    w23 = 0.5 * (A * p.a * p.b12 / Ch + B * p.a_I * p.b21 / Ih - _over_product(B * alpha * V, I, Ih))
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
    return _form(params, coeffs, eq.point, s)


def _form(params, coeffs, pt, s):
    # Unchecked: search_coeffs evaluates at an inner point that may hold an
    # overflowed (inf) coordinate, which only leaves Omega indefinite.
    entries = _omega_entries(
        params, params.alpha, params.k, coeffs.A, coeffs.B, coeffs.D,
        (pt.C, pt.I, pt.V), (s.C, s.I, s.V),
    )
    return OmegaForm(*entries, evaluated_at=s)


def condition4(
    params: ModelParams,
    eq: Equilibrium,
    variant: Condition4Variant = Condition4Variant.CORRECTED,
) -> Condition4Report:
    """The paper's scalar condition 4 at the equilibrium.

    Compares a product of the two diagonal self-limitation brackets
    (lhs) against a squared cross-coupling term (rhs); ``holds`` means
    lhs > rhs.  The AS_WRITTEN variant squares (a*b12/C^ + b21/I^
    - V^2); CORRECTED replaces V^2 by alpha*V^.  Neither variant is
    sufficient for a definite Omega: where both brackets are negative
    their product is positive, and it can hold at an unstable equilibrium.
    """
    _require_inner(eq)
    if not isinstance(variant, Condition4Variant):
        raise ParameterError(f"unknown condition variant {variant!r}")
    pt = eq.point
    lhs, rhs_as_written, rhs_corrected = _condition4_sides(params, params.alpha, pt.C, pt.I, pt.V)
    rhs = rhs_as_written if variant is Condition4Variant.AS_WRITTEN else rhs_corrected
    return Condition4Report(lhs=float(lhs), rhs=float(rhs), holds=bool(lhs > rhs), variant=variant)


def _condition4_sides(params: ModelParams, alpha, Ch, Ih, Vh) -> Tuple[float, float, float]:
    """condition4's lhs and its two right-hand sides (as written,
    corrected) at the equilibrium (Ch, Ih, Vh), with alpha in place of
    params.alpha."""
    p = params
    bracket_I = p.a_I * p.b22 - (1.0 / Ih) * p.a_I * (1.0 - p.b21 * Ch - p.b22 * Ih) + p.m
    bracket_C = p.a * p.b11 - (1.0 / Ch) * p.a * (1.0 - p.b11 * Ch - p.b12 * Ih)
    lhs = (bracket_I / Ih) * (bracket_C / Ch)
    cross = p.a * p.b12 / Ch + p.b21 / Ih
    return lhs, 0.25 * _square(cross - Vh * Vh), 0.25 * _square(cross - alpha * Vh)


def _square(x: float) -> float:
    # A float power raises OverflowError where a product would give inf.
    try:
        return x ** 2
    except OverflowError:
        return math.inf


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
    score = _grid_scores(params, params.alpha, params.k, (eq.point.C, eq.point.I, eq.point.V))
    i, j = divmod(int(np.argmax(score)), len(_WEIGHTS))
    coeffs = LyapunovCoeffs(A=float(_WEIGHTS[i]), B=float(_WEIGHTS[j]), D=1.0)
    form = _form(params, coeffs, eq.point, eq.point)
    return (coeffs, form) if form.positive_definite else None


def _grid_scores(params: ModelParams, alpha: float, k: float, pt: tuple) -> np.ndarray:
    # min(delta1..3) at the equilibrium pt = (C, I, V) over the weights
    # (A by row, B by column, D = 1), with (alpha, k) in place of
    # params.alpha and params.k.  Overflow NaNs at extreme rates read -inf.
    with np.errstate(over="ignore", invalid="ignore"):
        entries = _omega_entries(params, alpha, k, _WEIGHTS[:, None], _WEIGHTS[None, :], 1.0, pt, pt)
        d1, d2, d3 = _minors(*entries)
        score = np.minimum(np.minimum(d1, d2), d3)
    score[np.isnan(score)] = -np.inf
    return score


def _positive_run(c2, c1, c0):
    """Grid indices x where c2*x^2 + c1*x + c0 > 0, for c0 <= 0.

    For c2 <= 0 the positive set on x > 0 is one interval, whose ends
    come from the cancellation-free root formulas (hi is inf when
    c2 == 0) and are widened by _ROOT_SLACK.  c2 > 0 can only occur on
    a B column where delta2 <= 0, kept by that widening; then every
    index is returned.
    """
    if c2 > 0.0:
        return range(len(_WEIGHT_LIST))
    disc = c1 * c1 - 4.0 * c2 * c0
    if not (c1 > 0.0 and disc > 0.0):
        return range(0)
    s = c1 + math.sqrt(disc)
    lo = -2.0 * c0 / s
    hi = s / (-2.0 * c2) if c2 < 0.0 else math.inf
    return range(
        bisect_right(_WEIGHT_LIST, lo * (1.0 - _ROOT_SLACK)),
        bisect_left(_WEIGHT_LIST, hi * (1.0 + _ROOT_SLACK)),
    )


def _grid_has_definite(params: ModelParams, alpha: float, k: float, pt: tuple) -> bool:
    """``search_coeffs(p, eq) is not None``, decided through Omega's algebra,
    for p = params with (alpha, k) in place of params.alpha and
    params.k and eq the inner equilibrium at the point pt = (C, I, V).

    With D = 1 at the equilibrium, omega11 = sigma/V^^2 is constant,
    omega22 = g*B and omega12 = u*B + c (u, c <= 0) depend on B alone,
    and omega33 = h*A, omega13 = e*A, omega23 = f*A + q*B.  So delta2
    is a concave quadratic in B, and on each B column where delta2 > 0,
    delta3 is a quadratic in A with c2 <= 0 and c0 <= 0; each positive
    set is one interval.
    Only the grid points inside them are evaluated, with the operations
    search_coeffs applies at that point, and the first definite one
    decides.  All of this runs on plain floats; out of the closed forms'
    safe range the whole grid is scored as search_coeffs scores it.
    """
    # Every entry is linear in (A, B, D), and no entry holds both an A
    # and a D term, so two evaluations give each weight's part.
    w11, _, h, c, e, f = _omega_entries(params, alpha, k, 1.0, 0.0, 1.0, pt, pt)
    _, g, _, u, _, q = _omega_entries(params, alpha, k, 0.0, 1.0, 0.0, pt, pt)
    # A NaN or inf part makes the sum fail the test as well.
    parts = (w11, g, h, u, c, e, f, q)
    if not (sum(map(abs, parts)) < _PART_MAX and min(w11 * g, w11 * g * h) > _SCALE_MIN):
        return bool(_grid_scores(params, alpha, k, pt).max() > 0.0)

    # delta2(B) = w11*g*B - (u*B + c)^2
    b_run = _positive_run(-u * u, w11 * g - 2.0 * u * c, -c * c)
    for j in b_run:
        B = _WEIGHT_LIST[j]
        w12 = u * B + c
        w22 = g * B
        qB = q * B
        a_run = _positive_run(
            -(w11 * f * f - 2.0 * w12 * e * f + w22 * e * e),
            h * (w11 * w22 - w12 * w12) + 2.0 * qB * (w12 * e - w11 * f),
            -w11 * qB * qB,
        )
        for i in a_run:
            d1, d2, d3 = _minors(*_omega_entries(params, alpha, k, _WEIGHT_LIST[i], B, 1.0, pt, pt))
            if d1 > 0.0 and d2 > 0.0 and d3 > 0.0:
                return True
    return False
