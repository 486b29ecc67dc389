from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from retrodyn import (
    EquilibriumKind,
    ModelParams,
    State,
    all_equilibria,
    boundary_equilibria,
    inner_equilibrium,
    residual,
    vector_field,
)
from retrodyn.equilibria import _inner_point, _over_product
from retrodyn.model import PARAM_NAMES

from conftest import decisions_near_thresholds, eq_point, sample_params

# Frozen from the first run of the linear-solve oracle on P2
# (C + 0.35 I = 1; -0.05 C + 2 I = 1.5, then V = k m I / sigma).
P2_INNER = (0.7311028500619579, 0.7682775712515489, 0.38413878562577447)


def test_inner_p1_exact(p1):
    eq = inner_equilibrium(p1)
    assert eq is not None
    assert eq.kind is EquilibriumKind.INNER
    assert (eq.point.C, eq.point.I, eq.point.V) == (1.0, 0.5, 0.25)
    assert residual(p1, eq.point) == 0.0


def test_inner_p2_frozen(p2):
    eq = inner_equilibrium(p2)
    assert eq is not None
    assert eq.point.C == pytest.approx(P2_INNER[0], rel=1e-13)
    assert eq.point.I == pytest.approx(P2_INNER[1], rel=1e-13)
    assert eq.point.V == pytest.approx(P2_INNER[2], rel=1e-13)
    assert residual(p2, eq.point) < 1e-12


def test_inner_p3_absent(p3):
    assert inner_equilibrium(p3) is None


def test_boundary_p1(p1):
    eqs = boundary_equilibria(p1)
    kinds = [e.kind for e in eqs]
    assert kinds == [
        EquilibriumKind.EXTINCTION,
        EquilibriumKind.UNINFECTED_ONLY,
        EquilibriumKind.INFECTED_ONLY,
    ]
    pts = [(e.point.C, e.point.I, e.point.V) for e in eqs]
    assert pts == [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.5, 0.25)]


def test_boundary_p3_drops_infected_only(p3):
    eqs = boundary_equilibria(p3)
    assert [e.kind for e in eqs] == [
        EquilibriumKind.EXTINCTION,
        EquilibriumKind.UNINFECTED_ONLY,
    ]


def test_boundary_points_are_equilibria():
    rng = np.random.default_rng(23)
    for _ in range(200):
        p = sample_params(rng)
        for eq in boundary_equilibria(p):
            d = vector_field(p, eq.point)
            assert max(abs(d.dC), abs(d.dI), abs(d.dV)) < 1e-12


def test_residual_examples(p1, p2):
    assert residual(p1, State(0.0, 0.0, 0.0)) == 0.0
    assert residual(p1, State(2.0, 0.0, 0.0)) == 2.0
    eq = inner_equilibrium(p2)
    assert residual(p2, eq.point) < 1e-12


def test_virus_balance_consistency():
    # V component uses the same floating expression k*m*I/sigma everywhere
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 200:
        p = sample_params(rng)
        eq = inner_equilibrium(p)
        if eq is None:
            continue
        assert eq.point.V == p.k * p.m * eq.point.I / p.sigma
        checked += 1
    for p in (sample_params(rng) for _ in range(50)):
        for eq in boundary_equilibria(p):
            if eq.point.I > 0.0 or eq.point.V > 0.0:
                assert eq.point.V == p.k * p.m * eq.point.I / p.sigma


def test_singular_reduced_system_absent():
    # b11*b22 = b12*b21 with alpha = 0 collapses the 2x2 determinant
    p = ModelParams(a=1, a_I=1, b11=1, b12=1, b21=1, b22=1, alpha=0, m=0.5, k=1, sigma=1)
    assert inner_equilibrium(p) is None


@pytest.mark.parametrize("fields", [
    # C's Cramer numerator is 2**-43, so C = 2**-43/(4 - 2**-43)
    dict(a=1, a_I=2, b11=1, b12=1 - 2 ** -43, b21=0, b22=1, alpha=1, m=1, k=1, sigma=1),
    # I's Cramer numerator is 2**-43, so I is about 2**-44
    dict(a=1, a_I=2, b11=1, b12=0, b21=0.5 + 2 ** -44, b22=1, alpha=2 ** -42, m=1, k=1, sigma=1),
])
def test_tiny_chronic_state_exists(fields):
    # A coordinate near 1e-13 in natural units is still a chronic state:
    # the exact Cramer solve of the cell equations with V = k*m*I/sigma.
    p = ModelParams(**fields)
    eq = inner_equilibrium(p)
    assert eq is not None
    x = SimpleNamespace(**{name: Fraction(value) for name, value in fields.items()})
    # a*b11*C + (a*b12 + u)*I = a,  (a_I*b21 - u)*C + a_I*b22*I = a_I - m
    u = x.alpha * x.k * x.m / x.sigma
    r11, r12, r21, r22 = x.a * x.b11, x.a * x.b12 + u, x.a_I * x.b21 - u, x.a_I * x.b22
    det = r11 * r22 - r12 * r21
    C = (x.a * r22 - r12 * (x.a_I - x.m)) / det
    I = (r11 * (x.a_I - x.m) - r21 * x.a) / det
    exact = (C, I, x.k * x.m * I / x.sigma)
    assert 1e-14 < min(exact) < 1e-13
    assert eq_point(eq) == pytest.approx(exact, rel=1e-15)


def test_chronic_state_is_the_invasion_numbers_over_det():
    # The chronic state's coordinates are invasion margins over det
    # (Hofbauer & Sigmund's invasion picture): I*det is b11*m*(R_V - 1),
    # R_V the virus's basic reproduction number at the virus-free state,
    # and C*det is (a_I*b22/a)*g_C, g_C the growth rate of uninfected
    # cells invading the infected-only state (C, I, V) = (0, I1, V1).
    # Exact, on random rational parameters.
    rng = np.random.default_rng(37)

    def rational():
        return Fraction(int(rng.integers(1, 301)), int(rng.integers(1, 101)))

    found = 0
    for _ in range(400):
        x = SimpleNamespace(**{name: rational() for name in PARAM_NAMES})
        solved = _inner_point(x, x.alpha, x.k)
        if solved is None:
            continue
        found += 1
        C, I, V, det = solved
        R_V = x.a_I * (1 - x.b21 / x.b11) / x.m + x.k * x.alpha / (x.b11 * x.sigma)
        I1 = (x.a_I - x.m) / (x.a_I * x.b22)
        V1 = x.k * x.m * I1 / x.sigma
        g_C = x.a * (1 - x.b12 * I1) - x.alpha * V1
        assert I * det == x.b11 * x.m * (R_V - 1), x
        assert C * det == (x.a_I * x.b22 / x.a) * g_C, x
    assert found > 150


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: existence rests on float signs, which can differ from the exact ones "
                          "within a few ulps of the threshold")
def test_existence_is_exact_near_its_thresholds():
    pairs = [(got is None, want is None)
             for existence, got, want in decisions_near_thresholds(np.random.default_rng(137), 60) if existence]
    wrong = sum(got != want for got, want in pairs)
    assert wrong == 0, f"{wrong} of {len(pairs)} float existence answers are not the exact ones"


def test_underflowing_divisor():
    # a*sigma underflows to 0: a12 overflows to inf instead of raising,
    # and the NaN coordinates that follow read as no coexistence state
    p = ModelParams(a=3e-188, a_I=5.98, b11=9.1, b12=4.08, b21=1.47, b22=1.22,
                    alpha=3.67, m=4.42, k=4.66, sigma=1.5e-295)
    assert inner_equilibrium(p) is None
    # a_I*b22 underflows to 0, yet I = (a_I - m)/(a_I*b22) is finite
    p = ModelParams(a=1, a_I=1e-200, b11=1, b12=0.1, b21=0.1, b22=1e-200,
                    alpha=0.5, m=1e-201, k=1, sigma=1)
    infected = boundary_equilibria(p)[2]
    assert infected.kind is EquilibriumKind.INFECTED_ONLY
    assert infected.point.I == pytest.approx(9e199, rel=1e-15)
    assert residual(p, infected.point) < 1e-15


def test_over_product():
    # in range: the bits of the product's one division, which differ
    # here from those of dividing one factor at a time
    x, u, v, w = 0.3, 0.7, 1.1, 1.3
    assert x / (u * v) != x / u / v and x / (u * v * w) != x / u / v / w
    assert _over_product(x, u, v) == x / (u * v)
    assert _over_product(x, u, v, w) == x / (u * v * w)
    # the product underflows to 0: one factor at a time
    tiny = 2.0**-600
    assert tiny * tiny == 0.0
    assert _over_product(2.0**-300, tiny, tiny) == 2.0**900
    assert _over_product(2.0**-1000, tiny, tiny, 2.0) == 2.0**199
    # exact on Fractions
    fx, fu, fv, fw = map(Fraction, (x, u, v, w))
    assert _over_product(fx, fu, fv) == fx / (fu * fv)
    assert _over_product(fx, fu, fv, fw) == fx / (fu * fv * fw)
    assert type(_over_product(fx, fu, fv, fw)) is Fraction


def test_random_roundtrip_residuals():
    rng = np.random.default_rng(31)
    found = 0
    for _ in range(1000):
        p = sample_params(rng)
        eq = inner_equilibrium(p)
        if eq is None:
            continue
        found += 1
        res = residual(p, eq.point)
        assert res < 1e-10
        assert min(eq.point.C, eq.point.I, eq.point.V) > 1e-12
        peak = max(abs(eq.point.C), abs(eq.point.I), abs(eq.point.V))
        assert res <= 1e-10 * (1.0 + peak)
    assert found > 500  # the sampler is supposed to hit coexistence often


def test_all_equilibria_inner_first(p1, p3):
    eqs = all_equilibria(p1)
    assert len(eqs) == 4
    assert eqs[0].kind is EquilibriumKind.INNER
    assert all(e.kind is not EquilibriumKind.INNER for e in all_equilibria(p3))
