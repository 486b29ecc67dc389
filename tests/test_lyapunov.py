import math
from bisect import bisect_left
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from retrodyn import (
    Condition4Variant,
    CubicCoeffs,
    DomainError,
    LyapunovCoeffs,
    ModelParams,
    OmegaForm,
    ParameterError,
    State,
    Verdict,
    boundary_equilibria,
    classify_equilibrium,
    condition4,
    inner_equilibrium,
    omega_at,
    routh_hurwitz_cubic,
    search_coeffs,
    vector_field,
    volterra,
    w_dot,
    w_value,
)

import retrodyn.lyapunov
from retrodyn.equilibria import _inner_point
from retrodyn.lyapunov import (
    _WEIGHTS, _definite_points, _grid_has_definite, _minors, _omega_entries, _positive_run,
)
from retrodyn.model import PARAM_NAMES, _cubic_coeffs, _jacobian_entries

from conftest import (
    counting, eq_point, log_uniform, refuse_objects, sample_params, sample_params_mild, state_near, units_scaled,
)

ONES = LyapunovCoeffs(1.0, 1.0, 1.0)

# Frozen regression values for P2 (first computation, see notes in repo).
P2_COND4_LHS = 2.739575038166159
P2_COND4_RHS_AS_WRITTEN = 0.003562797296871674
P2_COND4_RHS_CORRECTED = 0.0014014375690521148
P2_SEARCH_A = 0.02238721138568339
P2_SEARCH_B = 22.38721138568338
P2_SEARCH_MINORS = (6.776784599375651, 367.5054628831536, 7.764339857484358)
# alpha tuned so that the coexistence V^ equals alpha itself, making the
# two condition4 variants coincide
ALPHA_FIXED_POINT = 0.3722724447659429


def test_volterra_values():
    assert volterra(1.0) == 0.0
    assert volterra(2.0) == pytest.approx(1.0 - math.log(2.0), rel=1e-15)
    assert volterra(0.5) > 0.0
    with pytest.raises(DomainError):
        volterra(0.0)
    with pytest.raises(DomainError):
        volterra(-1.0)


def test_coeffs_validation():
    with pytest.raises(ParameterError):
        LyapunovCoeffs(0.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        LyapunovCoeffs(1.0, -2.0, 1.0)
    with pytest.raises(ParameterError):
        LyapunovCoeffs(1.0, 1.0, float("nan"))
    with pytest.raises(ParameterError):
        LyapunovCoeffs(True, 1.0, 1.0)


def test_w_value_at_equilibrium_is_zero(p1, p2):
    for p in (p1, p2):
        eq = inner_equilibrium(p)
        assert w_value(ONES, eq, eq.point) == 0.0


def test_w_value_hand_case(p1):
    eq = inner_equilibrium(p1)  # (1, 0.5, 0.25)
    s = State(2.0, 0.5, 0.25)
    w = w_value(LyapunovCoeffs(1.0, 2.0, 3.0), eq, s)
    assert w == pytest.approx(1.0 - math.log(2.0), rel=1e-15)


def test_w_value_positive_off_equilibrium(p2):
    rng = np.random.default_rng(47)
    eq = inner_equilibrium(p2)
    for _ in range(100):
        s = state_near(rng, eq.point, 1.0)
        assert w_value(ONES, eq, s) > 0.0


def test_w_dot_zero_at_equilibrium(p1, p2):
    for p in (p1, p2):
        eq = inner_equilibrium(p)
        assert w_dot(p, ONES, eq, eq.point) == 0.0


def test_w_dot_hand_case(p1):
    # P1 decouples (alpha = 0); at (2, 1, 0.5) every term is dyadic:
    # dC = -2, dI = -1, dV = 0, so dW/dt = 0.5*(-2)/1 + 0.5*(-1)/0.5 = -2
    eq = inner_equilibrium(p1)
    assert w_dot(p1, ONES, eq, State(2.0, 1.0, 0.5)) == -2.0


def test_w_dot_matches_difference_quotient(p2):
    # central difference of W along the flow direction
    rng = np.random.default_rng(53)
    eq = inner_equilibrium(p2)
    coeffs = LyapunovCoeffs(0.7, 1.3, 2.1)
    h = 1e-5
    for _ in range(50):
        s = state_near(rng, eq.point, 0.7)
        f = vector_field(p2, s)
        sp = State(s.C + h * f.dC, s.I + h * f.dI, s.V + h * f.dV)
        sm = State(s.C - h * f.dC, s.I - h * f.dI, s.V - h * f.dV)
        fd = (w_value(coeffs, eq, sp) - w_value(coeffs, eq, sm)) / (2.0 * h)
        wd = w_dot(p2, coeffs, eq, s)
        assert fd == pytest.approx(wd, rel=1e-6, abs=1e-10)


def test_omega_hand_case(p1):
    # at (2, 1, 0.5): omega11 = 16, omega22 = 4, omega33 = 1, omega12 = -4
    eq = inner_equilibrium(p1)
    form = omega_at(p1, ONES, eq, State(2.0, 1.0, 0.5))
    assert (form.omega11, form.omega22, form.omega33) == (16.0, 4.0, 1.0)
    assert (form.omega12, form.omega13, form.omega23) == (-4.0, 0.0, 0.0)
    d = np.array([0.5 - 0.25, 1.0 - 0.5, 2.0 - 1.0])
    assert form.value(d) == 2.0  # equals -w_dot at the same state


def test_master_identity(p1, p2):
    # -dW/dt == d . Omega(s) . d identically in the state
    rng = np.random.default_rng(59)
    param_sets = [p1, p2]
    while len(param_sets) < 7:
        p = sample_params(rng)
        if inner_equilibrium(p) is not None:
            param_sets.append(p)
    for p in param_sets:
        eq = inner_equilibrium(p)
        coeffs = LyapunovCoeffs(
            math.exp(rng.uniform(-2, 2)),
            math.exp(rng.uniform(-2, 2)),
            math.exp(rng.uniform(-2, 2)),
        )
        pt = eq.point
        for _ in range(1000):
            s = state_near(rng, pt, 2.0)
            form = omega_at(p, coeffs, eq, s)
            d = np.array([s.V - pt.V, s.I - pt.I, s.C - pt.C])
            wd = w_dot(p, coeffs, eq, s)
            assert abs(form.value(d) + wd) <= 1e-10 * (1.0 + abs(wd))


def test_omega33_state_independent(p2):
    eq = inner_equilibrium(p2)
    f1 = omega_at(p2, ONES, eq, State(0.2, 0.3, 0.4))
    f2 = omega_at(p2, ONES, eq, State(5.0, 7.0, 11.0))
    assert f1.omega33 == f2.omega33
    assert f1.omega11 != f2.omega11


def test_omega_entries_at_equilibrium(p2):
    eq = inner_equilibrium(p2)
    pt = eq.point
    form = omega_at(p2, ONES, eq, pt)
    assert form.omega11 == p2.sigma / (pt.V * pt.V)
    assert form.omega13 == 0.5 * p2.alpha / pt.C
    assert form.omega33 == p2.a * p2.b11 / pt.C


def test_omega_at_equilibrium_is_minus_sym_pj():
    # At the inner equilibrium Omega = -sym(P.J), with J the Jacobian in
    # (V, I, C) order and P = diag(D/V^^2, B/I^^2, A/C^^2): the identity
    # behind the sweep's skip of the weight search at Unstable cells.
    # Exact, on random rational parameters and weights.
    rng = np.random.default_rng(29)

    def rational():
        return Fraction(int(rng.integers(1, 301)), int(rng.integers(1, 101)))

    found = 0
    while found < 120:
        p = SimpleNamespace(**{name: rational() for name in PARAM_NAMES})
        solved = _inner_point(p, p.alpha, p.k)
        if solved is None:
            continue
        found += 1
        C, I, V, _ = solved
        point = (C, I, V)
        A, B, D = rational(), rational(), rational()
        w11, w22, w33, w12, w13, w23 = _omega_entries(p, p.alpha, p.k, A, B, D, point, point)
        j = _jacobian_entries(p, C, I, V)
        J = [[j[3 * (2 - r) + (2 - c)] for c in range(3)] for r in range(3)]  # (V, I, C) order
        P = (D / (V * V), B / (I * I), A / (C * C))
        want = [[-(P[r] * J[r][c] + P[c] * J[c][r]) / 2 for c in range(3)] for r in range(3)]
        assert [[w11, w12, w13], [w12, w22, w23], [w13, w23, w33]] == want, p


def test_omega_underflowing_divisor(p2):
    # V*V^, I*I^ and I*I^^2 underflow to 0 at these octant states; the
    # entries then divide by one factor at a time instead of raising
    eq = inner_equilibrium(p2)
    form = omega_at(p2, ONES, eq, State(1.0, 1.0, 5e-324))
    assert (form.omega11, form.omega12) == (math.inf, -math.inf)
    assert form.omega22 == omega_at(p2, ONES, eq, State(1.0, 1.0, 1.0)).omega22
    form = omega_at(p2, ONES, eq, State(1.0, 5e-324, 1.0))
    assert (form.omega22, form.omega12, form.omega23) == (math.inf, -math.inf, -math.inf)
    # a product that stays above 0 keeps the one-step division
    s = State(1.0, 1e-300, 1e-300)
    form = omega_at(p2, ONES, eq, s)
    assert form.omega11 == p2.sigma / (s.V * eq.point.V)
    assert form.omega22 == p2.a_I * p2.b22 / eq.point.I + p2.alpha * eq.point.C * eq.point.V / (
        s.I * eq.point.I * eq.point.I
    )


def test_as_matrix_and_value_agree(p2):
    rng = np.random.default_rng(61)
    eq = inner_equilibrium(p2)
    s = state_near(rng, eq.point, 1.0)
    form = omega_at(p2, LyapunovCoeffs(0.3, 2.0, 1.7), eq, s)
    m = form.as_matrix()
    assert type(m) is tuple and all(type(row) is tuple and all(type(x) is float for x in row) for row in m)
    assert m == tuple(zip(*m))  # symmetric
    for _ in range(20):
        d = rng.normal(size=3)
        assert form.value(d) == pytest.approx(float(d @ np.asarray(m) @ d), rel=1e-12, abs=1e-9)
        assert form.value(tuple(d.tolist())) == form.value(d)


def _raw_form(w11, w22, w33, w12, w13, w23):
    return OmegaForm(
        omega11=w11, omega22=w22, omega33=w33,
        omega12=w12, omega13=w13, omega23=w23,
        evaluated_at=State(1.0, 1.0, 1.0),
    )


def _minors_of(form):
    return (form.delta1, form.delta2, form.delta3)


def test_minor_hand_cases():
    assert _minors_of(_raw_form(1, 1, 1, 0, 0, 0)) == (1.0, 1.0, 1.0)
    assert _minors_of(_raw_form(1, 2, 3, 0, 0, 0)) == (1.0, 2.0, 6.0)
    assert _minors_of(_raw_form(1, 1, 1, 2, 0, 0)) == (1.0, -3.0, -3.0)
    assert _raw_form(1, 2, 3, 0, 0, 0).positive_definite
    assert not _raw_form(1, 1, 1, 2, 0, 0).positive_definite


def test_minors_match_determinant_oracle():
    rng = np.random.default_rng(67)
    for _ in range(200):
        w = rng.normal(size=6)
        form = _raw_form(*w)
        m = np.asarray(form.as_matrix())
        assert form.delta1 == m[0, 0]
        assert form.delta2 == pytest.approx(np.linalg.det(m[:2, :2]), rel=1e-10, abs=1e-12)
        assert form.delta3 == pytest.approx(np.linalg.det(m), rel=1e-10, abs=1e-12)


def test_condition4_p1(p1):
    eq = inner_equilibrium(p1)
    r_aw = condition4(p1, eq, Condition4Variant.AS_WRITTEN)
    r_co = condition4(p1, eq, Condition4Variant.CORRECTED)
    assert r_aw.lhs == 2.0 and r_co.lhs == 2.0
    assert r_aw.rhs == 0.0009765625  # (V^2/2)^2 with V^ = 1/4
    assert r_co.rhs == 0.0  # alpha = 0 kills the corrected cross term
    assert r_aw.holds and r_co.holds
    with pytest.raises(ParameterError, match="variant"):
        condition4(p1, eq, "corrected")  # the value, not the enum member


def test_condition4_p2_frozen(p2):
    eq = inner_equilibrium(p2)
    r_aw = condition4(p2, eq, Condition4Variant.AS_WRITTEN)
    r_co = condition4(p2, eq)
    assert r_co.variant is Condition4Variant.CORRECTED
    assert r_aw.lhs == pytest.approx(P2_COND4_LHS, rel=1e-12)
    assert r_co.lhs == pytest.approx(P2_COND4_LHS, rel=1e-12)
    assert r_aw.rhs == pytest.approx(P2_COND4_RHS_AS_WRITTEN, rel=1e-12)
    assert r_co.rhs == pytest.approx(P2_COND4_RHS_CORRECTED, rel=1e-12)
    assert r_aw.holds and r_co.holds


def test_condition4_variants_coincide_at_fixed_point(p2):
    p = p2.replace(alpha=ALPHA_FIXED_POINT)
    eq = inner_equilibrium(p)
    r_aw = condition4(p, eq, Condition4Variant.AS_WRITTEN)
    r_co = condition4(p, eq, Condition4Variant.CORRECTED)
    assert abs(eq.point.V - p.alpha) < 1e-15
    assert r_aw.rhs == r_co.rhs


def test_condition4_is_not_sufficient(p_unstable):
    # Faithful evaluation: both brackets of the lhs flip sign here, so
    # their product is positive and the inequality "holds" even though
    # the equilibrium itself is unstable.  The condition is not
    # sufficient and only meaningful alongside the minors.
    eq = inner_equilibrium(p_unstable)
    rep = classify_equilibrium(p_unstable, eq)
    assert rep.verdict is Verdict.UNSTABLE
    for variant in Condition4Variant:
        assert condition4(p_unstable, eq, variant).holds


def test_condition4_rhs_overflows_to_inf(p2):
    # a*b12/C^ is finite but its square is not: the rhs must read inf
    # and fail to hold
    p = p2.replace(a=1e308)
    eq = inner_equilibrium(p)
    for variant in Condition4Variant:
        report = condition4(p, eq, variant)
        assert report.rhs == math.inf and not report.holds


def test_search_p2_frozen(p2):
    eq = inner_equilibrium(p2)
    hit = search_coeffs(p2, eq)
    assert hit is not None
    coeffs, form = hit
    assert coeffs.A == pytest.approx(P2_SEARCH_A, rel=1e-12)
    assert coeffs.B == pytest.approx(P2_SEARCH_B, rel=1e-12)
    assert coeffs.D == 1.0
    assert form.positive_definite
    got = _minors_of(form)
    for g, want in zip(got, P2_SEARCH_MINORS):
        assert g == pytest.approx(want, rel=1e-12)


def test_search_skips_overflowed_weights(p2):
    # P2 with every rate x 1e101: part of the weight grid overflows to
    # NaN minors, yet definite grid points remain
    p = units_scaled(p2, 1e101)
    hit = search_coeffs(p, inner_equilibrium(p))
    assert hit is not None
    coeffs, form = hit
    assert (coeffs.A, coeffs.B) == (1e-3, _WEIGHTS[15])
    assert form.positive_definite
    assert np.all(np.linalg.eigvalsh(form.as_matrix()) > 0.0)


# The weight grid's bits are the contract: np.logspace(-3.0, 3.0, 41) where
# numpy's power runs its AVX-512 kernel.
WEIGHT_HEX = (
    "0x1.0624dd2f1a9fcp-10", "0x1.7249ca3bee77bp-10", "0x1.0585e4c78b079p-9", "0x1.71693d08e6beep-9",
    "0x1.04e74cc73ee88p-8", "0x1.7089380241edfp-8", "0x1.044914f3c02b0p-7", "0x1.6fa9bad56bdb7p-7",
    "0x1.03ab3d12bc2c4p-6", "0x1.6ecac5300270fp-6", "0x1.030dc4ea03a72p-5", "0x1.6dec56bfd58e5p-5",
    "0x1.0270ac3f8a9f8p-4", "0x1.6d0e6f32e6ea2p-4", "0x1.01d3f2d9684d1p-3", "0x1.6c310e3769f3fp-3",
    "0x1.0137987dd704bp-2", "0x1.6b54337bc3b62p-2", "0x1.009b9cf334250p-1", "0x1.6a77deae8ab8bp-1",
    "0x1.0000000000000p+0", "0x1.699c0f7e86e0ep+0", "0x1.fec982d5bb8acp+0", "0x1.68c0c59ab1560p+1",
    "0x1.fd93c1f526dd8p+1", "0x1.67e600b234625p+2", "0x1.fc5ebcec1353fp+2", "0x1.670bc0746b541p+3",
    "0x1.fb2a73489786bp+3", "0x1.66320490e2622p+4", "0x1.f9f6e4990f227p+4", "0x1.6558ccb7568cap+5",
    "0x1.f8c4106c1abf8p+5", "0x1.64801897b580dp+6", "0x1.f791f6509fb5ep+6", "0x1.63a7e7e21d783p+7",
    "0x1.f66095d5c7f4ap+7", "0x1.62d03a46dd1fep+8", "0x1.f52fee8b01d8cp+8", "0x1.61f90f7673780p+9",
    "0x1.f400000000000p+9",
)


def test_weights_are_numpy_logspace():
    # Written out as literals so that importing lyapunov loads no numpy.
    # np.logspace's bits depend on the SIMD power numpy dispatches to:
    # without AVX-512 (and in libm's pow, 10.0 ** x) indices 25 and 34
    # round one ulp up, so numpy is compared only to within 1 ulp.
    assert type(_WEIGHTS) is tuple
    assert [w.hex() for w in _WEIGHTS] == list(WEIGHT_HEX)
    assert all(lo < hi for lo, hi in zip(_WEIGHTS, _WEIGHTS[1:]))
    assert _WEIGHTS[20] == 1.0
    for w, x in zip(_WEIGHTS, np.logspace(-3.0, 3.0, 41).tolist()):
        assert abs(w - x) <= math.ulp(w)


def test_positive_run_hand_cases():
    # _WEIGHTS[20] == 1 and _WEIGHTS[22] < 2 < _WEIGHTS[23]; the ends are
    # widened, so a grid point on a root is kept for the exact check
    assert _WEIGHTS[20] == 1.0 and _WEIGHTS[22] < 2.0 < _WEIGHTS[23]
    assert _positive_run(-1.0, 3.0, -2.0) == range(20, 23)  # roots 1 and 2
    assert _positive_run(0.0, 1.0, -1.0) == range(20, 41)  # linear: x > 1
    assert _positive_run(-1.0, 1.0, 0.0) == range(0, 21)  # 0 < x < 1
    assert _positive_run(-1.0, -1.0, -1.0) == range(0)
    assert _positive_run(-1.0, 1.0, -1.0) == range(0)  # no real root
    assert _positive_run(1.0, 1.0, -1.0) == range(41)  # convex: every point


def test_grid_has_definite_matches_search(p1, p2, p_unstable, monkeypatch):
    # the algebraic decision against the grid search it replaces in the
    # sweep, on draws that take each branch: Korobeinikov's point is
    # definite (one evaluation of Omega), the enumeration finds another
    # point, or there is none
    cases = [p1, p2, p_unstable] + [units_scaled(p2, s) for s in (1e-5, 1e50, 1e101, 1e103)]
    rng = np.random.default_rng(71)
    for sampler in (sample_params, sample_params_mild):
        cases += [sampler(rng) for _ in range(2000)]
    evaluated = counting(monkeypatch, retrodyn.lyapunov, "_omega_entries")
    outcomes = []
    for p in cases:
        eq = inner_equilibrium(p)
        if eq is None:
            continue
        want = search_coeffs(p, eq) is not None
        del evaluated[:]
        assert _grid_has_definite(p, p.alpha, p.k, eq_point(eq)) is want, p
        outcomes.append((want, len(evaluated) == 1))
    assert len(outcomes) > 2500
    assert set(outcomes) == {(True, True), (True, False), (False, False)}


def test_grid_has_definite_skips_the_grid_search(p1, p2, p_unstable, monkeypatch):
    # Korobeinikov's point is evaluated first; where it is not definite,
    # in range the closed forms leave a few grid points to evaluate, and
    # out of it every point is, up to the first definite one.  Neither
    # path builds a parameter set, an equilibrium, a state, weights or a
    # form, and both give the answer of search_coeffs.
    far = [units_scaled(p2, 1e101), units_scaled(p2, 1e103), units_scaled(p_unstable, 1e103)]
    cases = [p1, p2, p_unstable, units_scaled(p2, 1e-5), units_scaled(p2, 1e20)] + far
    cases = [(p, inner_equilibrium(p)) for p in cases]
    want = [search_coeffs(p, eq) is not None for p, eq in cases]
    evaluated = counting(monkeypatch, retrodyn.lyapunov, "_minors")
    refuse_objects(monkeypatch)
    got, counts = [], []
    for p, eq in cases:
        before = len(evaluated)
        got.append(_grid_has_definite(p, p.alpha, p.k, eq_point(eq)))
        counts.append(len(evaluated) - before)
    assert got == want
    assert all(type(g) is bool for g in got)
    assert want[-3:] == [True, True, False]
    # in range: the guess alone, or the guess and an empty enumeration
    assert counts[:-3] == [1] * 5
    # x 1e101: the guess is definite; x 1e103: its delta3 overflows to
    # NaN, and the enumeration runs to the first definite point
    assert counts[-3] == 1
    assert len(_WEIGHTS) < counts[-2] < len(_WEIGHTS) ** 2
    # indefinite out of range: the guess, then the whole grid
    assert counts[-1] == len(_WEIGHTS) ** 2 + 1


# A Stable cell of the benchmark's seed-0 maps (first map, smallest
# alpha) where Korobeinikov's grid point is not definite but another
# grid point is.
_GUESS_MISSES = dict(a=0.7776291211519247, a_I=0.7545144296910659, b11=0.3187974660227875,
                     b12=0.040410237105039104, b21=0.03969456306645996, b22=0.27041172236761163,
                     alpha=0.0020000000000000005, m=0.795332519031742, k=15.699148084114281,
                     sigma=0.464379596051594)


def _korobeinikov_weights(p, pt):
    # (A, B) of (C^, I^, V^/k) scaled to D = 1, each rounded up onto the grid
    C, I, V = pt
    return tuple(_WEIGHTS[min(bisect_left(_WEIGHTS, x * p.k / V), len(_WEIGHTS) - 1)] for x in (C, I))


def _korobeinikov_minors(p, pt):
    A, B = _korobeinikov_weights(p, pt)
    return _minors(*_omega_entries(p, p.alpha, p.k, A, B, 1.0, pt, pt))


def test_grid_has_definite_stops_at_a_definite_guess(p2, monkeypatch):
    # At P2 Korobeinikov's point is definite: Omega is evaluated once,
    # where exhausting the enumeration up to its first definite point
    # takes three evaluations (two for the weights' parts, one point).
    eq = inner_equilibrium(p2)
    assert all(d > 0.0 for d in _korobeinikov_minors(p2, eq_point(eq)))
    evaluated = counting(monkeypatch, retrodyn.lyapunov, "_omega_entries")
    assert _grid_has_definite(p2, p2.alpha, p2.k, eq_point(eq)) is True
    assert len(evaluated) == 1
    del evaluated[:]
    next(_definite_points(p2, p2.alpha, p2.k, eq_point(eq)))
    assert len(evaluated) == 3


def test_grid_has_definite_falls_back_to_the_enumeration(monkeypatch):
    p = ModelParams(**_GUESS_MISSES)
    eq = inner_equilibrium(p)
    assert classify_equilibrium(p, eq).verdict is Verdict.STABLE
    assert not all(d > 0.0 for d in _korobeinikov_minors(p, eq_point(eq)))
    assert search_coeffs(p, eq) is not None
    evaluated = counting(monkeypatch, retrodyn.lyapunov, "_omega_entries")
    assert _grid_has_definite(p, p.alpha, p.k, eq_point(eq)) is True
    # the guess, the weights' two parts and at least one grid point
    assert len(evaluated) >= 4


def _numpy_search(p, eq):
    # The whole-grid search search_coeffs must match bit for bit:
    # min(delta1..3) over every weight pair (A by row, B by column,
    # D = 1), NaN read as -inf, and the first maximum.
    weights = np.array(_WEIGHTS)
    pt = eq_point(eq)
    with np.errstate(over="ignore", invalid="ignore"):
        entries = _omega_entries(p, p.alpha, p.k, weights[:, None], weights[None, :], 1.0, pt, pt)
        minors = [np.broadcast_to(d, (len(_WEIGHTS),) * 2) for d in _minors(*entries)]
        score = np.minimum(np.minimum(minors[0], minors[1]), minors[2])
    score[np.isnan(score)] = -np.inf
    i, j = np.unravel_index(score.argmax(), score.shape)
    if not score[i, j] > 0.0:
        return None
    return [_WEIGHTS[i], _WEIGHTS[j], 1.0] + [float(d[i, j]) for d in minors]


def test_search_matches_numpy_grid_argmax(p1, p2, p_unstable):
    rng = np.random.default_rng(113)
    cases = [sampler(rng) for sampler in (sample_params, sample_params_mild) for _ in range(1000)]
    for _ in range(300):
        # time and population units log-uniform on [1e-150, 1e150] away
        time, population = log_uniform(rng, 1e-150, 1e150), log_uniform(rng, 1e-150, 1e150)
        cases.append(units_scaled(sample_params(rng), time, population))
    cases += [units_scaled(p, s) for p in (p2, p_unstable) for s in (1e-5, 1e20, 1e50, 1e101, 1e103)]
    cases.append(p1.replace(k=1e300, sigma=1e-10))  # an overflowed inner point
    found = []
    for p in cases:
        eq = inner_equilibrium(p)
        if eq is None:
            continue
        hit = search_coeffs(p, eq)
        if hit is not None:
            coeffs, form = hit
            hit = [coeffs.A, coeffs.B, coeffs.D, form.delta1, form.delta2, form.delta3]
        want = _numpy_search(p, eq)
        assert (hit and [x.hex() for x in hit]) == (want and [x.hex() for x in want]), p
        found.append(hit is not None)
    assert len(found) > 1400 and 0 < sum(found) < len(found)


def test_search_unstable_exemplar_absent(p_unstable):
    eq = inner_equilibrium(p_unstable)
    assert search_coeffs(p_unstable, eq) is None


def test_minor_scaling(p2):
    # doubling all three weights scales the minors by 2, 4 and 8 exactly
    eq = inner_equilibrium(p2)
    s = State(0.9, 0.6, 0.5)
    base = omega_at(p2, LyapunovCoeffs(0.25, 1.5, 1.0), eq, s)
    scaled = omega_at(p2, LyapunovCoeffs(0.5, 3.0, 2.0), eq, s)
    assert scaled.delta1 == 2.0 * base.delta1
    assert scaled.delta2 == 4.0 * base.delta2
    assert scaled.delta3 == 8.0 * base.delta3


def test_non_finite_states_rejected(p2):
    # inf is no point of the open octant: W and dW/dt there read NaN
    eq = inner_equilibrium(p2)
    for s in (State(math.inf, 1.0, 1.0), State(1.0, math.inf, 1.0), State(1.0, 1.0, math.inf),
              State(math.nan, 1.0, 1.0)):
        with pytest.raises(DomainError, match="open positive octant"):
            w_value(ONES, eq, s)
        with pytest.raises(DomainError, match="open positive octant"):
            w_dot(p2, ONES, eq, s)
        with pytest.raises(DomainError, match="open positive octant"):
            omega_at(p2, ONES, eq, s)


def test_search_at_an_overflowed_inner_point(p1):
    # V^ = k*m*I^/sigma overflows to inf while the point still counts as
    # inner: the search answers None (no definite form) rather than
    # rejecting the equilibrium's own point, as _grid_has_definite does.
    p = p1.replace(k=1e300, sigma=1e-10)
    eq = inner_equilibrium(p)
    assert (eq.point.C, eq.point.I, eq.point.V) == (1.0, 0.5, math.inf)
    assert search_coeffs(p, eq) is None
    assert _grid_has_definite(p, p.alpha, p.k, eq_point(eq)) is False


def test_search_reports_the_form_it_ranked(p1, p2, monkeypatch):
    # The form search_coeffs returns holds the winner's entries from the
    # enumeration: Omega is evaluated no more often than exhausting
    # _definite_points does.
    calls = counting(monkeypatch, retrodyn.lyapunov, "_omega_entries")
    for p in (p1, p2, units_scaled(p2, 1e101)):
        eq = inner_equilibrium(p)
        hits = list(_definite_points(p, p.alpha, p.k, eq_point(eq)))
        enumerated = len(calls)
        coeffs, form = search_coeffs(p, eq)
        assert len(calls) == 2 * enumerated
        del calls[:]
        (i, j, entries, _), = [hit for hit in hits if (_WEIGHTS[hit[0]], _WEIGHTS[hit[1]]) == (coeffs.A, coeffs.B)]
        assert (form.omega11, form.omega22, form.omega33, form.omega12, form.omega13, form.omega23) == entries
        assert form.evaluated_at is eq.point


def _exact_failures(p, A, B, form):
    """The oracle checks that the weights (A, B, 1) and their float form
    fail at the exact inner equilibrium of p's floats."""
    x = SimpleNamespace(**{name: Fraction(getattr(p, name)) for name in PARAM_NAMES})
    pt = _inner_point(x, x.alpha, x.k)
    if pt is None:
        return ["no exact inner equilibrium"]
    pt = pt[:3]
    failed = []
    if not all(d > 0 for d in _minors(*_omega_entries(x, x.alpha, x.k, Fraction(A), Fraction(B), 1, pt, pt))):
        failed.append("Omega not exactly definite")
    if not np.all(np.linalg.eigvalsh(form.as_matrix()) > 0.0):
        failed.append("eigvalsh not positive")
    cubic = CubicCoeffs(*_cubic_coeffs(*_jacobian_entries(x, *pt)))
    if not all(margin > 0 for margin in routh_hurwitz_cubic(cubic).margins):
        failed.append("exact Hurwitz margin not positive")
    return failed


def test_grid_weights_pass_the_exact_oracles():
    # The checks that are to replace the grid's pinned answers (ROADMAP
    # item 4), held against the grid: the weights search_coeffs returns,
    # the first definite point of the enumeration and Korobeinikov's
    # point where it is definite (the points where the sweep stops) make
    # Omega exactly definite, are positive definite by eigvalsh, and sit
    # at an exactly Hurwitz equilibrium.  Every second draw is in a time
    # unit 2**e away.
    rng = np.random.default_rng(24)
    checked = guessed = 0
    for index in range(600):
        p = sample_params(rng)
        if index % 2:
            e = int(rng.integers(-40, 41))
            p = p.replace(**{name: math.ldexp(getattr(p, name), e) for name in ("a", "a_I", "m", "sigma", "alpha")})
        eq = inner_equilibrium(p)
        hit = eq and search_coeffs(p, eq)
        if not hit:
            continue
        coeffs, form = hit
        i, j, entries, _ = next(_definite_points(p, p.alpha, p.k, eq_point(eq)))
        assert _exact_failures(p, coeffs.A, coeffs.B, form) == [], p
        first = OmegaForm(*entries, evaluated_at=eq.point)
        assert _exact_failures(p, _WEIGHTS[i], _WEIGHTS[j], first) == [], p
        A, B = _korobeinikov_weights(p, eq_point(eq))
        guess = omega_at(p, LyapunovCoeffs(A, B, 1.0), eq, eq.point)
        if guess.positive_definite:
            assert _exact_failures(p, A, B, guess) == [], p
            guessed += 1
        checked += 1
    assert checked > 400 and guessed > 300


def test_inner_equilibrium_required(p1):
    boundary = boundary_equilibria(p1)[1]
    eq = inner_equilibrium(p1)
    with pytest.raises(ParameterError):
        w_value(ONES, boundary, State(1.0, 1.0, 1.0))
    with pytest.raises(ParameterError):
        w_dot(p1, ONES, boundary, State(1.0, 1.0, 1.0))
    with pytest.raises(ParameterError):
        condition4(p1, boundary)
    with pytest.raises(ParameterError):
        search_coeffs(p1, boundary)
    with pytest.raises(DomainError):
        w_value(ONES, eq, State(1.0, 0.0, 1.0))
    with pytest.raises(DomainError):
        omega_at(p1, ONES, eq, State(-1.0, 1.0, 1.0))
