import math

import numpy as np
import pytest

from retrodyn import (
    Condition4Variant,
    DomainError,
    LyapunovCoeffs,
    OmegaForm,
    ParameterError,
    State,
    Verdict,
    boundary_equilibria,
    classify_equilibrium,
    condition4,
    inner_equilibrium,
    omega_at,
    search_coeffs,
    vector_field,
    volterra,
    w_dot,
    w_value,
)

import retrodyn.lyapunov
from retrodyn.lyapunov import _WEIGHTS, _grid_has_definite, _positive_run

from conftest import counting, eq_point, refuse_objects, sample_params, sample_params_mild, state_near

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
        f = vector_field(p2, s).as_array()
        sp = State(s.C + h * f[0], s.I + h * f[1], s.V + h * f[2])
        sm = State(s.C - h * f[0], s.I - h * f[1], s.V - h * f[2])
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
    assert np.array_equal(m, m.T)
    for _ in range(20):
        d = rng.normal(size=3)
        assert form.value(d) == pytest.approx(float(d @ m @ d), rel=1e-12, abs=1e-9)


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
        m = form.as_matrix()
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
    # a*b12/C^ is finite but its square is not; a float power raises
    # OverflowError there, where the rhs must read inf and fail to hold
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


def _rates_times(p, factor):
    # the same model in a time unit 1/factor as long
    return p.replace(**{name: factor * getattr(p, name) for name in ("a", "a_I", "m", "sigma", "alpha")})


def test_search_skips_overflowed_weights(p2):
    # P2 with every rate x 1e101: part of the weight grid overflows to
    # NaN minors, yet definite grid points remain
    p = _rates_times(p2, 1e101)
    hit = search_coeffs(p, inner_equilibrium(p))
    assert hit is not None
    coeffs, form = hit
    assert (coeffs.A, coeffs.B) == (1e-3, _WEIGHTS[15])
    assert form.positive_definite
    assert np.all(np.linalg.eigvalsh(form.as_matrix()) > 0.0)


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


def test_grid_has_definite_matches_search(p1, p2, p_unstable):
    # the algebraic decision against the grid search it replaces in the sweep
    cases = [p1, p2, p_unstable] + [_rates_times(p2, s) for s in (1e-5, 1e50, 1e101, 1e103)]
    rng = np.random.default_rng(71)
    for sampler in (sample_params, sample_params_mild):
        cases += [sampler(rng) for _ in range(2000)]
    outcomes = []
    for p in cases:
        eq = inner_equilibrium(p)
        if eq is None:
            continue
        want = search_coeffs(p, eq) is not None
        assert _grid_has_definite(p, p.alpha, p.k, eq_point(eq)) is want, p
        outcomes.append(want)
    assert len(outcomes) > 2500 and 0 < sum(outcomes) < len(outcomes)


def test_grid_has_definite_skips_the_grid_search(p1, p2, p_unstable, monkeypatch):
    # In range the closed forms decide alone; only overflow scores the
    # whole weight grid.  Neither path builds a parameter set, an
    # equilibrium, a state, weights or a form, and both give the answer
    # of search_coeffs.
    far = [_rates_times(p2, 1e101), _rates_times(p2, 1e103), _rates_times(p_unstable, 1e103)]
    cases = [p1, p2, p_unstable, _rates_times(p2, 1e-5), _rates_times(p2, 1e20)] + far
    cases = [(p, inner_equilibrium(p)) for p in cases]
    want = [search_coeffs(p, eq) is not None for p, eq in cases]
    scored = counting(monkeypatch, retrodyn.lyapunov, "_grid_scores")
    refuse_objects(monkeypatch)
    got = [_grid_has_definite(p, p.alpha, p.k, eq_point(eq)) for p, eq in cases]
    assert got == want
    assert all(type(g) is bool for g in got)
    assert [args[0] for args in scored] == far and want[-3:] == [True, True, False]


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
