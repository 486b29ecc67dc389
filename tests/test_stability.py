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
    IntegrationOptions,
    LyapunovCoeffs,
    ParameterError,
    State,
    Verdict,
    all_equilibria,
    boundary_equilibria,
    char_cubic,
    classify_equilibrium,
    condition4,
    inner_equilibrium,
    jacobian,
    lyapunov_trace,
    omega_at,
    routh_hurwitz_cubic,
    search_coeffs,
    w_dot,
)
from retrodyn.equilibria import _inner_point
from retrodyn.lyapunov import _condition4_sides, _minors, _omega_entries
from retrodyn.model import PARAM_NAMES, _cubic_coeffs, _jacobian_entries
from retrodyn.stability import _equilibrium_verdict, _reduced_cubic

from conftest import (
    decisions_near_thresholds, eq_point, log_uniform, sample_params, sample_params_broad, units_scaled,
)

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
    p = units_scaled(p2, 1e103)
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
            assert lo > 0
        elif rep.verdict is Verdict.UNSTABLE:
            assert lo < 0
        else:
            assert lo >= 0 and any(m <= 0 for m in rep.margins)


def test_marginal_only_at_a_zero_margin():
    # p*q - r is exactly 0 in these three cubics
    for eps in (0.0, 5e-13, -5e-13):
        rep = routh_hurwitz_cubic(CubicCoeffs(1.0 + eps, 1.0, 1.0 + eps))
        assert rep.verdict is Verdict.MARGINAL
    # margins near 0 decide by their signs: no band around 0
    for cubic, verdict in (((1.0, 1.0, 1.0 - 5e-13), Verdict.STABLE),
                           ((1.0, 1.0, 1.0 + 5e-13), Verdict.UNSTABLE),
                           ((1e-13, 1.0, 1e-14), Verdict.STABLE)):
        assert routh_hurwitz_cubic(CubicCoeffs(*cubic)).verdict is verdict, cubic


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


def test_classify_rejects_an_inner_equilibrium_of_other_params(p1, p2, p3):
    # P3 has no inner equilibrium, and P1's differs from P2's.  Every
    # function that takes params and an inner equilibrium checks it.
    eq = inner_equilibrium(p2)
    ones, s = LyapunovCoeffs(1.0, 1.0, 1.0), State(1.0, 1.0, 1.0)
    calls = [
        lambda params: classify_equilibrium(params, eq),
        lambda params: condition4(params, eq),
        lambda params: search_coeffs(params, eq),
        lambda params: omega_at(params, ones, eq, s),
        lambda params: w_dot(params, ones, eq, s),
        lambda params: lyapunov_trace(params, ones, eq, s, IntegrationOptions(t_end=1.0, dt=0.5)),
    ]
    for call in calls:
        call(p2)
        for params in (p3, p1):
            with pytest.raises(ParameterError, match="not the inner equilibrium of params"):
                call(params)


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
    # with rates and populations rescaled by factors log-uniform on
    # [1e-150, 1e150], at the inner and the boundary equilibria.  The
    # cubic and margins are the matrix path's; so is a boundary state's
    # verdict, while an inner one's is the sweep's (det and the Hopf
    # margin).
    rng = np.random.default_rng(103)
    cases = [p2]
    for _ in range(400):
        p = sample_params(rng)
        time, population = log_uniform(rng, 1e-150, 1e150), log_uniform(rng, 1e-150, 1e150)
        cases += [p, units_scaled(p, time, population)]
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
    cubic = _cubic_coeffs(*_jacobian_entries(exact, *point))
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
            assert _reduced_cubic(x, x.alpha, x.k, C, I, V, det) == _cubic_coeffs(*_jacobian_entries(x, C, I, V))
    assert found > 150


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the inner verdict rests on float signs, which can differ from the exact "
                          "ones within a few ulps of the threshold")
def test_verdict_is_exact_near_its_thresholds():
    pairs = [(got, want)
             for existence, got, want in decisions_near_thresholds(np.random.default_rng(137), 60) if not existence]
    wrong = sum(got != want for got, want in pairs)
    assert wrong == 0, f"{wrong} of {len(pairs)} float verdicts are not the exact ones"


def test_virus_free_verdict_follows_r_v():
    # The virus-free state (1/b11, 0, 0) is Stable exactly when the
    # virus cannot invade it: R_V < 1, R_V = a_I*(1 - b21/b11)/m +
    # k*alpha/(b11*sigma).  Draws within 1e-9 of R_V = 1, where rounding
    # can decide, are skipped.
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
