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

The scalar kernels, condition 4 and the weight search run on Python
floats: ``search_coeffs`` and the sweep's ``_grid_has_definite`` read
the same enumeration of the definite grid points.  Omega's entries, its
minors and condition 4's sides hold no float literal, so the same
kernels are exact on ``Fraction`` inputs.

The routines that need the inner equilibrium take the parameters, not
the equilibrium: each solves it itself (``inner_equilibrium``'s solve,
with the same bits) and raises ParameterError when there is none.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from typing import Optional, Tuple

from .equilibria import _inner_point, _over_product
from .errors import DomainError, ParameterError, _checked_float
from .model import ModelParams, State, _Record, _rhs

# The weights A and B that search_coeffs tries: 41 log-spaced values in
# [1e-3, 1e3], np.logspace(-3.0, 3.0, 41)'s bits where numpy's power uses
# AVX-512.  libm's pow rounds indices 25 and 34 one ulp up.
_WEIGHTS = (
    0.001, 0.001412537544622754, 0.001995262314968879, 0.002818382931264455,
    0.003981071705534973, 0.005623413251903491, 0.007943282347242814, 0.011220184543019636,
    0.015848931924611134, 0.02238721138568339, 0.03162277660168379, 0.0446683592150963,
    0.0630957344480193, 0.08912509381337455, 0.12589254117941676, 0.1778279410038923,
    0.25118864315095796, 0.3548133892335753, 0.501187233627272, 0.707945784384138,
    1.0, 1.412537544622754, 1.9952623149688788, 2.818382931264452,
    3.981071705534969, 5.62341325190349, 7.943282347242813, 11.220184543019629,
    15.848931924611142, 22.38721138568338, 31.622776601683793, 44.66835921509626,
    63.0957344480193, 89.12509381337459, 125.89254117941661, 177.82794100389228,
    251.18864315095772, 354.8133892335753, 501.18723362727246, 707.9457843841374,
    1000.0,
)
# Relative widening of each closed-form root before it is mapped onto the
# grid, so that a grid point within rounding of a root is still tried.
_ROOT_SLACK = 1e-9
# _definite_points' closed forms are trusted only while Omega's
# entries per unit weight sum to less than _PART_MAX in magnitude and
# the diagonal products that set the scale of delta2 and delta3 exceed
# _SCALE_MIN: then no minor on the grid overflows or loses its
# precision to underflow.
_PART_MAX = 1e40
_SCALE_MIN = 1e-100
_EVERY = range(len(_WEIGHTS))
_LAST = len(_WEIGHTS) - 1


class LyapunovCoeffs(_Record):
    """Positive weights (A, B, D) of the C, I and V terms of W."""

    A: float
    B: float
    D: float

    def _post_init(self):
        for name in ("A", "B", "D"):
            self._set(name, _checked_float(name, getattr(self, name), ">"))


class OmegaForm(_Record, derived=("delta1", "delta2", "delta3")):
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
    delta1: float
    delta2: float
    delta3: float

    def _post_init(self):
        d1, d2, d3 = _minors(
            self.omega11, self.omega22, self.omega33,
            self.omega12, self.omega13, self.omega23,
        )
        self._set("delta1", float(d1))
        self._set("delta2", float(d2))
        self._set("delta3", float(d3))

    @property
    def positive_definite(self) -> bool:
        return self.delta1 > 0.0 and self.delta2 > 0.0 and self.delta3 > 0.0

    def as_matrix(self) -> tuple:
        """The symmetric matrix, ordered (V, I, C), as three row tuples of floats."""
        w11, w22, w33, w12, w13, w23 = map(float, self._values()[:6])
        return (w11, w12, w13), (w12, w22, w23), (w13, w23, w33)

    def value(self, d) -> float:
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


class Condition4Report(_Record):
    lhs: float
    rhs: float
    holds: bool
    variant: Condition4Variant


def volterra(s: float) -> float:
    """v(s) = s - ln(s) - 1; nonnegative on (0, inf], zero only at s = 1.

    v(inf) is inf, the limit, which a ratio C/C^ reaches on overflow.
    """
    if not s > 0.0:
        raise DomainError(f"volterra term needs a positive argument, got {s!r}")
    return s - math.log(s) - 1.0 if s != math.inf else s


def _inner(params: ModelParams) -> tuple:
    """(C^, I^, V^) of params' inner equilibrium, as inner_equilibrium
    solves it; ParameterError when there is none."""
    solved = _inner_point(params, params.alpha, params.k)
    if solved is None:
        raise ParameterError("no coexistence equilibrium for these parameters")
    return solved[:3]


def _require_positive(s: State):
    if not (0.0 < s.C < math.inf and 0.0 < s.I < math.inf and 0.0 < s.V < math.inf):
        raise DomainError(f"state must lie in the open positive octant, got {s!r}")


# Unchecked kernels on plain floats, for w_value/w_dot and each row of
# the integrator's trace; pt is the inner equilibrium's (C^, I^, V^).
def _w(coeffs, pt, C, I, V):
    Ch, Ih, Vh = pt
    return coeffs.A * volterra(C / Ch) + coeffs.B * volterra(I / Ih) + coeffs.D * volterra(V / Vh)


def _w_dot(params, coeffs, pt, C, I, V):
    Ch, Ih, Vh = pt
    dC, dI, dV = _rhs(params, C, I, V)
    return (
        coeffs.A * (1.0 - Ch / C) * dC / Ch
        + coeffs.B * (1.0 - Ih / I) * dI / Ih
        + coeffs.D * (1.0 - Vh / V) * dV / Vh
    )


def w_value(params: ModelParams, coeffs: LyapunovCoeffs, s: State) -> float:
    """W(s) relative to the inner equilibrium of ``params``."""
    pt = _inner(params)
    _require_positive(s)
    return _w(coeffs, pt, s.C, s.I, s.V)


def w_dot(params: ModelParams, coeffs: LyapunovCoeffs, s: State) -> float:
    """Derivative of W along the flow, evaluated directly at state ``s``."""
    pt = _inner(params)
    _require_positive(s)
    return _w_dot(params, coeffs, pt, s.C, s.I, s.V)


def _omega_entries(params, alpha, k, A, B, D, eq_point, at_point):
    # With (alpha, k) in place of params' own; a coordinate product that
    # underflows to 0 is divided one factor at a time.  Halving by / 2,
    # not by a float literal, keeps Fraction inputs exact.
    p = params
    Ch, Ih, Vh = eq_point
    C, I, V = at_point
    w11 = _over_product(D * p.sigma, V, Vh)
    w22 = B * (p.a_I * p.b22 / Ih + _over_product(alpha * Ch * Vh, I, Ih, Ih))
    w33 = A * (p.a * p.b11 / Ch)
    w12 = -(_over_product(B * alpha * Ch, I, Ih) + _over_product(D * k * p.m, V, Vh)) / 2
    w13 = A / 2 * alpha / Ch
    w23 = (A * p.a * p.b12 / Ch + B * p.a_I * p.b21 / Ih - _over_product(B * alpha * V, I, Ih)) / 2
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


def omega_at(params: ModelParams, coeffs: LyapunovCoeffs, s: State) -> OmegaForm:
    """Coefficient matrix of the quadratic form -dW/dt at state ``s``."""
    pt = _inner(params)
    _require_positive(s)
    entries = _omega_entries(
        params, params.alpha, params.k, coeffs.A, coeffs.B, coeffs.D, pt, (s.C, s.I, s.V),
    )
    return OmegaForm(*entries, evaluated_at=s)


def condition4(params: ModelParams, variant: Condition4Variant = Condition4Variant.CORRECTED) -> Condition4Report:
    """The paper's scalar condition 4 at the inner equilibrium.

    Compares a product of the two diagonal self-limitation brackets
    (lhs) against a squared cross-coupling term (rhs); ``holds`` means
    lhs > rhs.  The AS_WRITTEN variant squares (a*b12/C^ + b21/I^
    - V^2); CORRECTED replaces V^2 by alpha*V^.  Neither variant is
    sufficient for a definite Omega: where both brackets are negative
    their product is positive, and it can hold at an unstable equilibrium.
    """
    pt = _inner(params)
    if not isinstance(variant, Condition4Variant):
        raise ParameterError(f"unknown condition variant {variant!r}")
    lhs, rhs_as_written, rhs_corrected = _condition4_sides(params, params.alpha, *pt)
    rhs = rhs_as_written if variant is Condition4Variant.AS_WRITTEN else rhs_corrected
    return Condition4Report(lhs=float(lhs), rhs=float(rhs), holds=bool(lhs > rhs), variant=variant)


def _condition4_sides(params: ModelParams, alpha, Ch, Ih, Vh) -> Tuple[float, float, float]:
    """condition4's lhs and its two right-hand sides (as written,
    corrected) at the equilibrium (Ch, Ih, Vh), with alpha in place of
    params.alpha."""
    p = params
    bracket_I = p.a_I * p.b22 - (1 / Ih) * p.a_I * (1 - p.b21 * Ch - p.b22 * Ih) + p.m
    bracket_C = p.a * p.b11 - (1 / Ch) * p.a * (1 - p.b11 * Ch - p.b12 * Ih)
    lhs = (bracket_I / Ih) * (bracket_C / Ch)
    cross = p.a * p.b12 / Ch + p.b21 / Ih
    x = cross - Vh * Vh
    y = cross - alpha * Vh
    # Squared by a product: correctly rounded, inf on overflow.
    return lhs, x * x / 4, y * y / 4


def search_coeffs(params: ModelParams) -> Optional[Tuple[LyapunovCoeffs, OmegaForm]]:
    """Search a log grid of weights for a definite Omega at the inner equilibrium.

    D is pinned to 1 (scaling all three weights only rescales the
    minors, so nothing is lost), while A and B range over 41
    log-spaced values in [1e-3, 1e3].  Among the weight pairs that make
    Omega definite, the one maximizing the smallest minor wins; a tie
    goes to the smaller A, then the smaller B.  A pair whose minors
    overflow to NaN is not definite and never wins.  None is returned
    when no pair makes Omega definite.  The form returned holds the
    winner's entries as the search evaluated them.
    """
    # The inner point may hold an overflowed (inf) coordinate, which
    # only leaves Omega indefinite.
    pt = _inner(params)
    hits = _definite_points(params, params.alpha, params.k, pt)
    best = max(hits, key=lambda hit: (min(hit[3]), -hit[0], -hit[1]), default=None)
    if best is None:
        return None
    i, j, entries, _ = best
    return LyapunovCoeffs(A=_WEIGHTS[i], B=_WEIGHTS[j], D=1.0), OmegaForm(*entries, evaluated_at=State(*pt))


def _positive_run(c2, c1, c0):
    """Grid indices x where c2*x^2 + c1*x + c0 > 0, for c0 <= 0.

    For c2 <= 0 the positive set on x > 0 is one interval, whose ends
    come from the cancellation-free root formulas (hi is inf when
    c2 == 0) and are widened by _ROOT_SLACK.  c2 > 0 can only occur on
    a B column where delta2 <= 0, kept by that widening; then every
    index is returned.
    """
    if c2 > 0.0:
        return _EVERY
    if not c1 > 0.0:  # then no x > 0 is positive
        return range(0)
    disc = c1 * c1 - 4.0 * c2 * c0
    if not disc > 0.0:
        return range(0)
    s = c1 + math.sqrt(disc)
    lo = -2.0 * c0 / s
    hi = s / (-2.0 * c2) if c2 < 0.0 else math.inf
    return range(
        bisect_right(_WEIGHTS, lo * (1.0 - _ROOT_SLACK)),
        bisect_left(_WEIGHTS, hi * (1.0 + _ROOT_SLACK)),
    )


def _definite_points(params: ModelParams, alpha: float, k: float, pt: tuple):
    """Yield (i, j, entries, (delta1, delta2, delta3)) for each grid
    weight (A, B, D) = (_WEIGHTS[i], _WEIGHTS[j], 1) that makes Omega definite
    at the equilibrium pt = (C, I, V), with (alpha, k) in place of
    params.alpha and params.k.

    With D = 1 at the equilibrium, omega11 = sigma/V^^2 is constant,
    omega22 = g*B and omega12 = u*B + c (u, c <= 0) depend on B alone,
    and omega33 = h*A, omega13 = e*A, omega23 = f*A + q*B.  So delta2
    is a concave quadratic in B, and on each B column where delta2 > 0,
    delta3 is a quadratic in A with c2 <= 0 and c0 <= 0; each positive
    set is one interval.  Only the grid points inside them are
    evaluated.  Out of the closed forms' safe range every grid point
    is.  Each point's entries come from _omega_entries and its minors
    from _minors, the operations OmegaForm applies, on plain floats.
    """
    # Every entry is linear in (A, B, D), and no entry holds both an A
    # and a D term, so two evaluations give each weight's part.
    w11, _, h, c, e, f = _omega_entries(params, alpha, k, 1.0, 0.0, 1.0, pt, pt)
    _, g, _, u, _, q = _omega_entries(params, alpha, k, 0.0, 1.0, 0.0, pt, pt)
    # A NaN or inf part makes the sum fail the test as well.
    parts = (w11, g, h, u, c, e, f, q)
    in_range = sum(map(abs, parts)) < _PART_MAX and min(w11 * g, w11 * g * h) > _SCALE_MIN

    # delta2(B) = w11*g*B - (u*B + c)^2
    b_run = _positive_run(-u * u, w11 * g - 2.0 * u * c, -c * c) if in_range else _EVERY
    # Out of the loop, as the same left-to-right products: the same bits.
    w11f, w11ff, neg_w11 = w11 * f, w11 * f * f, -w11
    for j in b_run:
        B = _WEIGHTS[j]
        a_run = _EVERY
        if in_range:
            w12, w22, qB = u * B + c, g * B, q * B
            a_run = _positive_run(
                -(w11ff - 2.0 * w12 * e * f + w22 * e * e),
                h * (w11 * w22 - w12 * w12) + 2.0 * qB * (w12 * e - w11f),
                neg_w11 * qB * qB,
            )
        for i in a_run:
            entries = _omega_entries(params, alpha, k, _WEIGHTS[i], B, 1.0, pt, pt)
            d1, d2, d3 = minors = _minors(*entries)
            if d1 > 0.0 and d2 > 0.0 and d3 > 0.0:
                yield i, j, entries, minors


def _grid_has_definite(params: ModelParams, alpha: float, k: float, pt: tuple) -> bool:
    """``search_coeffs(p) is not None`` for p = params with (alpha, k)
    in place of its own, whose inner equilibrium is pt = (C, I, V).

    First guess: Korobeinikov's weights (A, B, D) = (C^, I^, V^/k),
    scaled to D = 1 and each rounded up onto the grid (a NaN ratio to
    the first weight, a ratio above the grid to the last).  That point
    is evaluated as _definite_points evaluates its points, so a definite
    guess is a definite grid point; otherwise the enumeration decides.
    """
    Ch, Ih, Vh = pt
    # Searching [0, _LAST) caps the index at the last weight.
    A = _WEIGHTS[bisect_left(_WEIGHTS, Ch * k / Vh, 0, _LAST)]
    B = _WEIGHTS[bisect_left(_WEIGHTS, Ih * k / Vh, 0, _LAST)]  # I^*k/V^ = sigma/m
    d1, d2, d3 = _minors(*_omega_entries(params, alpha, k, A, B, 1.0, pt, pt))
    if d1 > 0.0 and d2 > 0.0 and d3 > 0.0:
        return True
    return next(_definite_points(params, alpha, k, pt), None) is not None
