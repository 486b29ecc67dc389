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

from conftest import sample_params

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
            d = vector_field(p, eq.point).as_array()
            assert np.max(np.abs(d)) < 1e-12


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
