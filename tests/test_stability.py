import numpy as np
import pytest

from retrodyn import (
    CubicCoeffs,
    Equilibrium,
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

from conftest import eq_point, sample_params
from test_kernels import _scaled

# Frozen on first computation for the P2 inner equilibrium.
P2_CUBIC = (3.4504337050805454, 3.5274741304785113, 1.1332094175960348)
P2_PQ_MINUS_R = 11.03810621600671


def test_rh_examples():
    assert routh_hurwitz_cubic(CubicCoeffs(3.0, 3.0, 1.0)).verdict is Verdict.STABLE
    assert routh_hurwitz_cubic(CubicCoeffs(1.0, 1.0, 1.0)).verdict is Verdict.MARGINAL
    assert routh_hurwitz_cubic(CubicCoeffs(-1.0, 1.0, 1.0)).verdict is Verdict.UNSTABLE


def test_rh_nan_margin_is_not_stable(p2):
    nan = float("nan")
    assert routh_hurwitz_cubic(CubicCoeffs(1.0, nan, 1.0)).verdict is Verdict.MARGINAL
    assert routh_hurwitz_cubic(CubicCoeffs(1.0, 2.0, nan)).verdict is Verdict.MARGINAL
    assert routh_hurwitz_cubic(CubicCoeffs(-1.0, nan, 1.0)).verdict is Verdict.UNSTABLE
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
    # and the boundary equilibria.
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
                assert rep.verdict is want.verdict
            verdicts.add(rep.verdict)
            nan_margins += rep.margins[2] != rep.margins[2]
    assert verdicts == set(Verdict) and nan_margins > 0
