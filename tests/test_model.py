import math

import numpy as np
import pytest

from retrodyn import (
    CubicCoeffs,
    ModelParams,
    ParameterError,
    State,
    char_cubic,
    inner_equilibrium,
    jacobian,
    vector_field,
)
from retrodyn.errors import _checked_float

from conftest import fd_jacobian, sample_params, state_near


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_params_reject_nonpositive_rates():
    good = dict(a=1, a_I=2, b11=1, b12=0, b21=0, b22=1, alpha=0, m=1, k=1, sigma=2)
    for name in ("a", "a_I", "b11", "b22", "m", "k", "sigma"):
        for bad in (0.0, -1.0):
            with pytest.raises(ParameterError):
                ModelParams(**{**good, name: bad})


def test_params_allow_zero_cross_terms():
    p = ModelParams(a=1, a_I=2, b11=1, b12=0, b21=0, b22=1, alpha=0, m=1, k=1, sigma=2)
    assert p.b12 == 0.0 and p.b21 == 0.0 and p.alpha == 0.0


def test_params_reject_negative_or_nonfinite():
    good = dict(a=1, a_I=2, b11=1, b12=0, b21=0, b22=1, alpha=0, m=1, k=1, sigma=2)
    with pytest.raises(ParameterError):
        ModelParams(**{**good, "alpha": -0.1})
    with pytest.raises(ParameterError):
        ModelParams(**{**good, "b12": -1e-9})
    with pytest.raises(ParameterError):
        ModelParams(**{**good, "a": float("nan")})
    with pytest.raises(ParameterError):
        ModelParams(**{**good, "k": float("inf")})
    with pytest.raises(ParameterError):
        ModelParams(**{**good, "m": True})
    with pytest.raises(ParameterError):
        ModelParams(**{**good, "sigma": "2"})
    with pytest.raises(ParameterError, match="'a'"):
        ModelParams(**{**good, "a": 10**400})  # too large for a float


@pytest.mark.parametrize("bound", [">", ">=", "!="])
def test_checked_float(bound):
    x = 0.5
    assert _checked_float("x", x, bound) is x
    for value in (2, np.float64(0.5)):
        out = _checked_float("x", value, bound)
        assert type(out) is float and out == value
    for bad in (True, math.nan, math.inf, -math.inf, 10**400, "1"):
        with pytest.raises(ParameterError, match="'x' must be a finite real number"):
            _checked_float("x", bad, bound)
    if bound != ">=":
        with pytest.raises(ParameterError, match=f"'x' must be {bound} 0, got 0.0"):
            _checked_float("x", 0.0, bound)


def test_params_replace_revalidates(p1):
    assert p1.replace(alpha=0.25).alpha == 0.25
    with pytest.raises(ParameterError):
        p1.replace(sigma=-1.0)
    with pytest.raises(ParameterError, match="'alpha'"):
        p1.replace(alpha=True)
    with pytest.raises(ParameterError, match="'beta'"):
        p1.replace(beta=1.0)
    # unknown names first, in call order, then the constructor's checks
    with pytest.raises(ParameterError, match="'gamma'"):
        p1.replace(alpha=-1.0, gamma=1.0, beta=1.0)
    q = p1.replace(alpha=0.25, k=3)
    assert q == ModelParams(**{**vars(p1), "alpha": 0.25, "k": 3.0})
    assert type(q.k) is float
    assert p1.alpha == 0.0 and p1.k == 1.0


# ---------------------------------------------------------------------------
# vector field
# ---------------------------------------------------------------------------

def test_field_vanishes_at_origin(p1, p2):
    for p in (p1, p2):
        d = vector_field(p, State(0.0, 0.0, 0.0))
        assert (d.dC, d.dI, d.dV) == (0.0, 0.0, 0.0)


def test_field_hand_value(p1):
    d = vector_field(p1, State(2.0, 0.0, 0.0))
    assert (d.dC, d.dI, d.dV) == (-2.0, 0.0, 0.0)


def test_field_hand_value_generic(p2):
    d = vector_field(p2, State(1.0, 1.0, 1.0))
    assert d.dC == pytest.approx(-0.6, abs=1e-15)
    assert d.dI == pytest.approx(-0.2, abs=1e-15)
    assert d.dV == pytest.approx(-0.5, abs=1e-15)


def test_field_vanishes_at_inner_equilibrium(p1, p2):
    rng = np.random.default_rng(101)
    params = [p1, p2]
    while len(params) < 12:
        p = sample_params(rng)
        if inner_equilibrium(p) is not None:
            params.append(p)
    for p in params:
        eq = inner_equilibrium(p)
        d = vector_field(p, eq.point)
        assert max(abs(d.dC), abs(d.dI), abs(d.dV)) < 1e-12


def test_quasi_positivity():
    # zeroing one coordinate leaves its derivative nonnegative
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = sample_params(rng)
        coords = rng.uniform(0.0, 3.0, 3)
        C, I, V = map(float, coords)
        assert vector_field(p, State(0.0, I, V)).dC == 0.0
        assert vector_field(p, State(C, 0.0, V)).dI >= 0.0
        assert vector_field(p, State(C, I, 0.0)).dV >= 0.0


# ---------------------------------------------------------------------------
# jacobian
# ---------------------------------------------------------------------------

def test_jacobian_third_row_exact():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = sample_params(rng)
        s = State(*map(float, rng.uniform(0.0, 3.0, 3)))
        J = jacobian(p, s)
        # three row tuples of floats: the int 0 of _jacobian_entries is converted too
        assert type(J) is tuple and len(J) == 3
        assert all(type(row) is tuple and len(row) == 3 and all(type(x) is float for x in row) for row in J)
        assert J[2][0] == 0.0
        assert J[2][1] == p.k * p.m
        assert J[2][2] == -p.sigma


def test_jacobian_at_origin(p2):
    J = jacobian(p2, State(0.0, 0.0, 0.0))
    expected = np.array(
        [
            [p2.a, 0.0, 0.0],
            [0.0, p2.a_I - p2.m, 0.0],
            [0.0, p2.k * p2.m, -p2.sigma],
        ]
    )
    assert np.array_equal(J, expected)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(120):
        p = sample_params(rng)
        s = State(*map(float, rng.uniform(0.1, 3.0, 3)))
        J = np.asarray(jacobian(p, s))
        F = fd_jacobian(p, s)
        assert np.all(np.abs(J - F) <= 1e-6 * (1.0 + np.abs(J)))


# ---------------------------------------------------------------------------
# characteristic cubic
# ---------------------------------------------------------------------------

def test_char_cubic_diagonal():
    c = char_cubic(np.diag([-1.0, -2.0, -3.0]))
    assert (c.p, c.q, c.r) == (6.0, 11.0, 6.0)


def test_char_cubic_zero_matrix():
    c = char_cubic(np.zeros((3, 3)))
    assert (c.p, c.q, c.r) == (0.0, 0.0, 0.0)


def test_char_cubic_rejects_bad_shape():
    ragged = [[0.0, 0.0, 0.0], [0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
    for bad in (np.zeros((2, 2)), ragged, np.zeros((3, 4)), np.zeros((3, 3, 1)), [[[0.0]] * 3] * 3,
                np.zeros(9), 0.0):
        with pytest.raises(ParameterError):
            char_cubic(bad)


def test_char_cubic_annihilates_eigenvalues():
    rng = np.random.default_rng(13)
    for _ in range(200):
        J = rng.uniform(-2.0, 2.0, (3, 3))
        c = char_cubic(J)
        # nested lists and nested tuples of the same matrix give the same bits
        bits = [x.hex() for x in (c.p, c.q, c.r)]
        for same in (J.tolist(), tuple(map(tuple, J.tolist()))):
            cs = char_cubic(same)
            assert [x.hex() for x in (cs.p, cs.q, cs.r)] == bits
        for lam in np.linalg.eigvals(J):
            value = lam**3 + c.p * lam**2 + c.q * lam + c.r
            assert abs(value) < 1e-8


def test_char_cubic_permutation_invariant():
    rng = np.random.default_rng(17)
    P = np.eye(3)[[2, 0, 1]]
    for _ in range(100):
        J = rng.uniform(-2.0, 2.0, (3, 3))
        c = char_cubic(J)
        cp = char_cubic(P @ J @ P.T)
        assert np.allclose([c.p, c.q, c.r], [cp.p, cp.q, cp.r], rtol=1e-13, atol=1e-14)


def test_char_cubic_continuity():
    rng = np.random.default_rng(19)
    eps = 1e-8
    for _ in range(100):
        J = rng.uniform(-2.0, 2.0, (3, 3))
        E = rng.uniform(-1.0, 1.0, (3, 3))
        c = char_cubic(J)
        cp = char_cubic(J + eps * E)
        bound = 50.0 * eps * (1.0 + np.sum(np.abs(J)) ** 2)
        assert abs(cp.p - c.p) <= bound
        assert abs(cp.q - c.q) <= bound
        assert abs(cp.r - c.r) <= bound


def test_char_cubic_matches_jacobian_eigenvalues(p2):
    eq = inner_equilibrium(p2)
    J = jacobian(p2, eq.point)
    c = char_cubic(J)
    for lam in np.linalg.eigvals(J):
        assert abs(lam**3 + c.p * lam**2 + c.q * lam + c.r) < 1e-10
