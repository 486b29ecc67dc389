import copy
import pickle
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from retrodyn import (
    CubicCoeffs,
    Equilibrium,
    EquilibriumKind,
    State,
    Verdict,
    all_equilibria,
    boundary_equilibria,
    char_cubic,
    classify_equilibrium,
    inner_equilibrium,
    jacobian,
    routh_hurwitz_cubic,
)
from retrodyn.equilibria import _inner_point
from retrodyn.lyapunov import _condition4_sides, _minors, _omega_entries
from retrodyn.model import PARAM_NAMES, _cubic_coeffs, _jacobian_entries
from retrodyn.stability import _equilibrium_verdict, _reduced_cubic

from conftest import _scaled, eq_point, sample_params, sample_params_broad

# Frozen on first computation for the P2 inner equilibrium.
P2_CUBIC = (3.4504337050805454, 3.5274741304785113, 1.1332094175960348)
P2_PQ_MINUS_R = 11.03810621600671


def test_rh_examples():
    assert routh_hurwitz_cubic(CubicCoeffs(3.0, 3.0, 1.0)).verdict is Verdict.STABLE
    assert routh_hurwitz_cubic(CubicCoeffs(1.0, 1.0, 1.0)).verdict is Verdict.MARGINAL
    assert routh_hurwitz_cubic(CubicCoeffs(-1.0, 1.0, 1.0)).verdict is Verdict.UNSTABLE


def test_verdict_copies_are_the_member():
    # Verdict hashes by identity, so every way of obtaining a member must
    # return that member: lookup by value, copies and a pickle round trip.
    names = {verdict: verdict.name for verdict in Verdict}
    for verdict in Verdict:
        for got in (Verdict(verdict.value), copy.copy(verdict), copy.deepcopy(verdict),
                    pickle.loads(pickle.dumps(verdict))):
            assert got is verdict
            assert names[got] == verdict.name
    assert [v.value for v in Verdict] == ["Stable", "Unstable", "Marginal"]


def test_rh_nan_margin_is_not_stable(p2):
    nan = float("nan")
    assert routh_hurwitz_cubic(CubicCoeffs(1.0, nan, 1.0)).verdict is Verdict.MARGINAL
    assert routh_hurwitz_cubic(CubicCoeffs(1.0, 2.0, nan)).verdict is Verdict.MARGINAL
    assert routh_hurwitz_cubic(CubicCoeffs(-1.0, nan, 1.0)).verdict is Verdict.UNSTABLE
    # NaN in the first margin as well: the rule does not depend on where the NaN sits
    assert routh_hurwitz_cubic(CubicCoeffs(nan, 1.0, 1.0)).verdict is Verdict.MARGINAL
    assert routh_hurwitz_cubic(CubicCoeffs(nan, 1.0, -1.0)).verdict is Verdict.UNSTABLE
    # P2 with every rate x 1e103: the cubic overflows and p*q - r is NaN,
    # without a warning (warnings fail the suite)
    p = p2.replace(**{name: 1e103 * getattr(p2, name) for name in ("a", "a_I", "m", "sigma", "alpha")})
    rep = classify_equilibrium(p, inner_equilibrium(p))
    assert np.isnan(rep.margins[2])
    assert rep.verdict is Verdict.MARGINAL


def test_rh_margins_definition():
    rep = routh_hurwitz_cubic(CubicCoeffs(2.0, 3.0, 0.5))
    assert rep.margins == (2.0, 0.5, 2.0 * 3.0 - 0.5)
    assert rep.cubic.q == 3.0


def test_rh_rule_consistency():
    rng = np.random.default_rng(37)
    for _ in range(500):
        c = CubicCoeffs(*rng.uniform(-2.0, 4.0, size=3))
        rep = routh_hurwitz_cubic(c)
        lo = min(rep.margins)
        if rep.verdict is Verdict.STABLE:
            assert lo > 1e-12
        elif rep.verdict is Verdict.UNSTABLE:
            assert lo < -1e-12
        else:
            assert lo >= -1e-12 and any(m <= 1e-12 for m in rep.margins)


def test_rh_against_root_oracle():
    # cross-check the sign test against numpy's root finder
    rng = np.random.default_rng(41)
    for _ in range(500):
        c = CubicCoeffs(*rng.uniform(-3.0, 6.0, size=3))
        rep = routh_hurwitz_cubic(c)
        if min(abs(m) for m in rep.margins) <= 1e-10:
            continue  # too close to the marginal surface for a sign call
        roots = np.roots([1.0, c.p, c.q, c.r])
        peak = np.max(roots.real)
        if rep.verdict is Verdict.STABLE:
            assert peak < 0.0
        elif rep.verdict is Verdict.UNSTABLE:
            assert peak > 0.0


def test_marginal_band():
    for eps in (0.0, 5e-13, -5e-13):
        rep = routh_hurwitz_cubic(CubicCoeffs(1.0 + eps, 1.0, 1.0 + eps))
        assert rep.verdict is Verdict.MARGINAL


def test_classify_p1(p1):
    eq = inner_equilibrium(p1)
    rep = classify_equilibrium(p1, eq)
    assert (rep.cubic.p, rep.cubic.q, rep.cubic.r) == (4.0, 5.0, 2.0)
    assert rep.verdict is Verdict.STABLE
    assert rep.margins == (4.0, 2.0, 18.0)


def test_classify_p2_frozen(p2):
    rep = classify_equilibrium(p2, inner_equilibrium(p2))
    assert rep.cubic.p == pytest.approx(P2_CUBIC[0], rel=1e-12)
    assert rep.cubic.q == pytest.approx(P2_CUBIC[1], rel=1e-12)
    assert rep.cubic.r == pytest.approx(P2_CUBIC[2], rel=1e-12)
    assert rep.verdict is Verdict.STABLE
    assert rep.margins[0] == rep.cubic.p
    assert rep.margins[1] == rep.cubic.r
    assert rep.margins[2] == pytest.approx(P2_PQ_MINUS_R, rel=1e-12)


def test_classify_unstable_exemplar(p_unstable):
    rep = classify_equilibrium(p_unstable, inner_equilibrium(p_unstable))
    assert rep.verdict is Verdict.UNSTABLE
    assert min(rep.margins) < -1e-8


def test_extinction_is_unstable():
    rng = np.random.default_rng(43)
    for _ in range(100):
        p = sample_params(rng)
        ext = boundary_equilibria(p)[0]
        rep = classify_equilibrium(p, ext)
        # growth from the empty state: +a is always an eigenvalue
        assert rep.verdict is Verdict.UNSTABLE


def test_classify_matches_direct_pipeline(p2):
    # classify_equilibrium's float path against the matrix path it
    # replaced, bit for bit: P2, sample_params draws, and the same draws
    # with rates and populations rescaled by 10^U(-150, 150), at the inner
    # and the boundary equilibria.  The cubic and margins are the matrix
    # path's; so is a boundary state's verdict, while an inner one's is
    # the sweep's (det and the Hopf margin, with no band).
    rng = np.random.default_rng(103)
    cases = [p2]
    for _ in range(400):
        p = sample_params(rng)
        time, population = 10.0 ** rng.uniform(-150.0, 150.0, 2)
        scaled = _scaled(p, time, ("a", "a_I", "m", "sigma", "alpha"))
        cases += [p, _scaled(scaled, population, ("b11", "b12", "b21", "b22", "alpha"))]
    verdicts, nan_margins = set(), 0
    for p in cases:
        for eq in all_equilibria(p):
            want = routh_hurwitz_cubic(char_cubic(jacobian(p, eq.point)))
            # the same point held as numpy scalars, as a trajectory row gives it
            as_numpy = Equilibrium(State(*np.array(eq_point(eq))), eq.kind)
            for rep in (classify_equilibrium(p, eq), classify_equilibrium(p, as_numpy)):
                cubic = (rep.cubic.p, rep.cubic.q, rep.cubic.r)
                assert all(type(c) is float for c in cubic + rep.margins)
                assert list(map(float.hex, cubic)) == list(map(float.hex, (want.cubic.p, want.cubic.q, want.cubic.r)))
                assert list(map(float.hex, rep.margins)) == list(map(float.hex, want.margins)), (p, eq)
                if eq.kind is EquilibriumKind.INNER:
                    assert rep.verdict is _equilibrium_verdict(p, p.alpha, p.k, *_inner_point(p, p.alpha, p.k))
                else:
                    assert rep.verdict is want.verdict
            verdicts.add(rep.verdict)
            nan_margins += rep.margins[2] != rep.margins[2]
    assert verdicts == set(Verdict) and nan_margins > 0


@pytest.mark.parametrize("name", ["p1", "p2", "p_unstable"])
def test_kernels_stay_exact_on_fractions(name, request):
    # The kernels hold no float literal, so Fraction parameters give an
    # exact point and cubic, and the verdict the floats give; Omega's
    # entries at rational weights, its minors and condition 4's sides
    # stay exact as well.
    p = request.getfixturevalue(name)
    exact = SimpleNamespace(**{n: Fraction(getattr(p, n)) for n in PARAM_NAMES})
    solved = _inner_point(exact, exact.alpha, exact.k)
    point = solved[:3]
    cubic = _cubic_coeffs(*_jacobian_entries(exact, exact.alpha, exact.k, *point))
    weights = (Fraction(1, 3), Fraction(5, 2), Fraction(1))
    entries = _omega_entries(exact, exact.alpha, exact.k, *weights, point, point)
    minors = _minors(*entries)
    sides = _condition4_sides(exact, exact.alpha, *point)
    assert all(type(x) is Fraction for x in solved + cubic + entries + minors + sides)
    float_solved = _inner_point(p, p.alpha, p.k)
    float_point = float_solved[:3]
    assert [float(x) for x in point] == pytest.approx(float_point, rel=1e-12)
    want = _equilibrium_verdict(p, p.alpha, p.k, *float_solved)
    assert _equilibrium_verdict(exact, exact.alpha, exact.k, *solved) is want
    float_entries = _omega_entries(p, p.alpha, p.k, *map(float, weights), float_point, float_point)
    float_sides = _condition4_sides(p, p.alpha, *float_point)
    got = [float(x) for x in entries + minors + sides]
    assert got == pytest.approx(float_entries + _minors(*float_entries) + float_sides, rel=1e-12)


def test_reduced_cubic_is_the_jacobians_exactly():
    # With the equilibrium relations substituted in, (p, q, r) equal the
    # generic Jacobian's cubic exactly, at Fraction equilibria of both
    # samplers (the broad one includes saddles).
    rng = np.random.default_rng(107)
    found = 0
    for sampler in (sample_params, sample_params_broad):
        for _ in range(150):
            p = sampler(rng)
            x = SimpleNamespace(**{name: Fraction(getattr(p, name)) for name in PARAM_NAMES})
            solved = _inner_point(x, x.alpha, x.k)
            if solved is None:
                continue
            found += 1
            C, I, V, det = solved
            assert _reduced_cubic(x, x.alpha, x.k, C, I, V, det) == _cubic_coeffs(*_jacobian_entries(x, x.alpha, x.k, C, I, V))
    assert found > 150


def test_virus_free_verdict_follows_r_v():
    # The virus-free state (1/b11, 0, 0) is Stable exactly when the
    # virus cannot invade it: R_V < 1, R_V = a_I*(1 - b21/b11)/m +
    # k*alpha/(b11*sigma).  Draws within 1e-9 of R_V = 1, where the
    # margin band decides, are skipped.
    rng = np.random.default_rng(113)
    stable = skipped = 0
    for _ in range(5000):
        p = sample_params(rng)
        r_v = p.a_I * (1 - p.b21 / p.b11) / p.m + p.k * p.alpha / (p.b11 * p.sigma)
        if abs(r_v - 1) < 1e-9:
            skipped += 1
            continue
        eq = boundary_equilibria(p)[1]
        assert eq.kind is EquilibriumKind.UNINFECTED_ONLY
        verdict = classify_equilibrium(p, eq).verdict
        assert verdict is (Verdict.STABLE if r_v < 1 else Verdict.UNSTABLE), (p, r_v)
        stable += verdict is Verdict.STABLE
    assert 500 < stable < 4500 and skipped < 10


def test_inner_verdict_against_eigenvalues():
    # det < 0 gives r = a*sigma*C*I*det < 0: a positive real root, so the
    # point is a saddle.  numpy's eigenvalues agree with every verdict.
    rng = np.random.default_rng(3)
    saddles = verdicts = 0
    for _ in range(300):
        p = sample_params_broad(rng)
        eq = inner_equilibrium(p)
        if eq is None:
            continue
        verdict = classify_equilibrium(p, eq).verdict
        eigenvalues = np.linalg.eigvals(jacobian(p, eq.point))
        if _inner_point(p, p.alpha, p.k)[3] < 0:
            saddles += 1
            assert verdict is Verdict.UNSTABLE
            assert any(ev.imag == 0 and ev.real > 0 for ev in eigenvalues), eigenvalues
        assert verdict is (Verdict.STABLE if max(eigenvalues.real) < 0 else Verdict.UNSTABLE), eigenvalues
        verdicts += 1
    assert saddles > 20 and verdicts > 100
