"""Bit-exact unit equivariance of the float kernels.

A unit change multiplies time by T, both cell populations by P and virus
by Q.  The model maps accordingly: C and I scale by P and V by Q;
a, a_I, m and sigma by 1/T; b11, b12, b21 and b22 by 1/P; alpha by
1/(T*Q) and k by Q/P.  With T, P and Q powers of two every rescaled
parameter is exact, and so is every dimensionally homogeneous formula
while nothing leaves the normal range.  The binary exponents are drawn
with |e| <= EXP = 40, which keeps every coordinate, Jacobian and Omega
entry, minor and trajectory value of these draws normal.  Beyond that
bound equivariance is not exact, and these tests do not claim it.

A rule that depends on the units fails the property.  Each such rule is
an xfail that names the ROADMAP item which is to remove it.
"""

import numpy as np
import pytest

from retrodyn import (
    Condition4Variant,
    CubicCoeffs,
    IntegrationMode,
    IntegrationOptions,
    LyapunovCoeffs,
    State,
    boundary_equilibria,
    classify_equilibrium,
    condition4,
    inner_equilibrium,
    integrate,
    routh_hurwitz_cubic,
    search_coeffs,
    w_dot,
    w_value,
)
from retrodyn.equilibria import _inner_point
from retrodyn.lyapunov import _WEIGHTS, _grid_has_definite, _minors, _omega_entries
from retrodyn.model import _cubic_coeffs, _jacobian_entries
from retrodyn.stability import _equilibrium_verdict, _reduced_cubic
from retrodyn.sweep import evaluate_cell, find_alpha_margin

from conftest import sample_params, sample_params_mild, state_near, units_scaled

EXP = 40


def _units(rng):
    """(T, P, Q) = 2**(e1, e2, e3) with each |e| <= EXP."""
    return tuple(2.0 ** int(e) for e in rng.integers(-EXP, EXP + 1, 3))


def _rescaled(p, T, P, Q):
    """p in units whose time, cell and virus scales are T, P and Q times the old."""
    return p.replace(
        a=p.a / T, a_I=p.a_I / T, m=p.m / T, sigma=p.sigma / T,
        b11=p.b11 / P, b12=p.b12 / P, b21=p.b21 / P, b22=p.b22 / P,
        alpha=p.alpha / (T * Q), k=p.k * Q / P,
    )


def _bits(values):
    return [float(x).hex() for x in values]


def _assert_scaled(got, base, factors):
    assert _bits(got) == _bits(x * f for x, f in zip(base, factors))


def _draws(seed, count, sampler=sample_params):
    """count seeded (p, q, (T, P, Q)) triples, q = p in the new units."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = sampler(rng)
        units = _units(rng)
        yield p, _rescaled(p, *units), units, rng


def test_kernels_scale_exactly():
    compared = 0
    for p, q, (T, P, Q), rng in _draws(71, 400):
        solved, new_solved = _inner_point(p, p.alpha, p.k), _inner_point(q, q.alpha, q.k)
        if solved is None or new_solved is None:
            continue  # existence itself is test_existence_is_unit_free
        compared += 1
        base, det, new, new_det = solved[:3], solved[3], new_solved[:3], new_solved[3]
        _assert_scaled(new, base, (P, P, Q))

        cubic = _cubic_coeffs(*_jacobian_entries(p, *base))
        new_cubic = _cubic_coeffs(*_jacobian_entries(q, *new))
        _assert_scaled(new_cubic, cubic, (1 / T, T ** -2, T ** -3))
        margins = routh_hurwitz_cubic(CubicCoeffs(*cubic)).margins
        new_margins = routh_hurwitz_cubic(CubicCoeffs(*new_cubic)).margins
        _assert_scaled(new_margins, margins, (1 / T, T ** -3, T ** -3))

        # the verdict's two signs: det, and h = p*q - r of the reduced cubic
        reduced = _reduced_cubic(p, p.alpha, p.k, *base, det)
        new_reduced = _reduced_cubic(q, q.alpha, q.k, *new, new_det)
        _assert_scaled(new_reduced, reduced, (1 / T, T ** -2, T ** -3))
        h, new_h = (c[0] * c[1] - c[2] for c in (reduced, new_reduced))
        _assert_scaled((new_det, new_h), (det, h), (1 / (T * P * P), T ** -3))

        # Omega and its minors at fixed weights, at the equilibrium and off it
        A, B = (_WEIGHTS[int(i)] for i in rng.integers(0, len(_WEIGHTS), 2))
        s = state_near(rng, State(*base), 1.0)
        scaled_s = (P * s.C, P * s.I, Q * s.V)
        tqq, tpp, tpq = 1 / (T * Q * Q), 1 / (T * P * P), 1 / (T * P * Q)
        omega = (tqq, tpp, tpp, tpq, tpq, tpp)  # w11, w22, w33, w12, w13, w23
        minors = (tqq, tqq * tpp, tqq * tpp * tpp)
        for at, new_at in ((base, new), ((s.C, s.I, s.V), scaled_s)):
            entries = _omega_entries(p, p.alpha, p.k, A, B, 1.0, base, at)
            new_entries = _omega_entries(q, q.alpha, q.k, A, B, 1.0, new, new_at)
            _assert_scaled(new_entries, entries, omega)
            _assert_scaled(_minors(*new_entries), _minors(*entries), minors)

        coeffs = LyapunovCoeffs(A, B, 1.0)
        assert w_value(q, coeffs, State(*scaled_s)).hex() == w_value(p, coeffs, s).hex()
        assert w_dot(q, coeffs, State(*scaled_s)).hex() == (w_dot(p, coeffs, s) / T).hex()

        assert _grid_has_definite(q, q.alpha, q.k, new) == _grid_has_definite(p, p.alpha, p.k, base)
    assert compared > 250


def _trajectory_bits(p, q, units, mode, rng):
    """Bits of q's run in the new units, and of p's run rescaled to them."""
    T, P, Q = units
    s0 = state_near(rng, State(0.5, 0.3, 0.4), 1.0)
    dt = 0.05 if mode is IntegrationMode.FIXED_RK4 else None
    opts = IntegrationOptions(t_end=4.0, dt=dt, mode=mode)
    new_opts = IntegrationOptions(
        t_end=4.0 * T, dt=None if dt is None else dt * T, abs_tol=opts.abs_tol * P, mode=mode,
    )
    run = integrate(p, s0, opts)
    new_run = integrate(q, State(P * s0.C, P * s0.I, Q * s0.V), new_opts)
    got = new_run.times + [x for s in new_run.states for x in s]
    want = [t * T for t in run.times] + [x for C, I, V in run.states for x in (C * P, I * P, V * Q)]
    return _bits(got), _bits(want)


def test_fixed_step_integrate_scales_exactly():
    for p, q, units, rng in _draws(73, 20, sample_params_mild):
        got, want = _trajectory_bits(p, q, units, IntegrationMode.FIXED_RK4, rng)
        assert got == want


def test_adaptive_integrate_scales_exactly_with_one_population_unit():
    # Cells and virus in the same unit (Q = P): the error norm mixes no units.
    for p, _, (T, P, _), rng in _draws(79, 20, sample_params_mild):
        got, want = _trajectory_bits(p, _rescaled(p, T, P, P), (T, P, P), IntegrationMode.ADAPTIVE_RK4, rng)
        assert got == want


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 13: adaptive RK4 takes one max-norm and one abs_tol over cells and virus")
def test_adaptive_integrate_with_a_virus_unit():
    for p, q, units, rng in _draws(83, 20, sample_params_mild):
        got, want = _trajectory_bits(p, q, units, IntegrationMode.ADAPTIVE_RK4, rng)
        assert got == want, units


def test_alpha_margin_scales_with_the_time_unit():
    # A time unit alone (P = Q = 1) divides every rate by T, and the
    # search, run in the caller's units, divides its answer by T.
    rng = np.random.default_rng(89)
    for _ in range(300):
        p = sample_params(rng)
        T = 2.0 ** int(rng.integers(-EXP, EXP + 1))
        q = _rescaled(p, T, 1.0, 1.0)
        want = find_alpha_margin(p, p.k, 10.0)
        got = find_alpha_margin(q, q.k, 10.0 / T)
        assert (got if got is None else got * T) == want, T


def test_existence_is_unit_free():
    for p, q, units, _ in _draws(71, 400):
        assert (_inner_point(q, q.alpha, q.k) is None) == (_inner_point(p, p.alpha, p.k) is None), units


def test_verdict_is_unit_free():
    # the inner verdict, and routh_hurwitz_cubic's at every boundary state
    boundary = 0
    for p, q, units, _ in _draws(71, 400):
        base, new = _inner_point(p, p.alpha, p.k), _inner_point(q, q.alpha, q.k)
        if base is not None and new is not None:
            assert _equilibrium_verdict(q, q.alpha, q.k, *new) is _equilibrium_verdict(p, p.alpha, p.k, *base), units
        for b, new_b in zip(boundary_equilibria(p), boundary_equilibria(q), strict=True):
            assert classify_equilibrium(q, new_b).verdict is classify_equilibrium(p, b).verdict, (units, b.kind)
            boundary += 1
    assert boundary > 1000


def test_underflowing_products_at_the_chronic_state(p2):
    # Virus in a unit Q = 2**-540 puts V^ near 1.07e-163, so V^*V^ and
    # the other products that divide Omega's entries underflow to 0;
    # _over_product then divides one factor at a time.  Existence, the
    # verdict and corrected condition 4 stay the unscaled cell's.
    q = _rescaled(p2, 1.0, 1.0, 2.0 ** -540)
    assert inner_equilibrium(q).point.V < 1e-162
    search_coeffs(q)
    new, cell = evaluate_cell(q, q.alpha, q.k), evaluate_cell(p2, p2.alpha, p2.k)
    for column in ("inner_exists", "rh_verdict", "cond4_corrected"):
        assert getattr(new, column) == getattr(cell, column), column


@pytest.mark.parametrize("time, population, virus", [
    pytest.param(1.0, 2.0 ** 520, 1.0, id="population-2^520"),
    pytest.param(1.0, 2.0 ** -512, 1.0, id="population-2^-512"),
    pytest.param(1.0, 1.0, 2.0 ** 540, id="virus-2^540"),
    pytest.param(1.0, 1.0, 2.0 ** -540, id="virus-2^-540"),
    pytest.param(2.0 ** -1000, 1.0, 1.0, id="time-2^-1000"),
])
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 19: a kernel overflows or underflows outside float range")
def test_decisions_beyond_float_range(p2, time, population, virus):
    # Far units: existence, the verdict and sylvester_pd equal P2's (a
    # chronic state, Stable, a definite form) in exact arithmetic, but a
    # kernel's intermediate overflows or underflows.  A virus unit maps
    # (alpha, k) to (alpha*Q, k/Q) (test_cell_depends_on_alpha_times_k).
    q = units_scaled(p2, time, population)
    cell, want = evaluate_cell(q, q.alpha * virus, q.k / virus), evaluate_cell(p2, p2.alpha, p2.k)
    for column in ("inner_exists", "rh_verdict", "sylvester_pd"):
        assert getattr(cell, column) == getattr(want, column), column


@pytest.mark.parametrize("variant", list(Condition4Variant))
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: condition 4 adds terms of different units")
def test_condition4_is_unit_free(variant):
    for p, q, units, _ in _draws(71, 400):
        eq, new_eq = inner_equilibrium(p), inner_equilibrium(q)
        if eq is not None and new_eq is not None:
            assert condition4(q, variant).holds == condition4(p, variant).holds, units


@pytest.mark.parametrize("column", [
    "inner_exists", "rh_verdict", "sylvester_pd", "cond4_corrected",
    pytest.param("cond4_as_written", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 5: condition 4 as written adds terms of different units")),
])
def test_cell_depends_on_alpha_times_k(column):
    # A virus unit alone (T = P = 1) maps (alpha, k) to (alpha/Q, k*Q) and
    # leaves every other parameter as it is (ROADMAP item 12).
    for p, _, (_, _, Q), _ in _draws(71, 400):
        q = _rescaled(p, 1.0, 1.0, Q)
        new, cell = evaluate_cell(q, q.alpha, q.k), evaluate_cell(p, p.alpha, p.k)
        assert getattr(new, column) == getattr(cell, column), Q
