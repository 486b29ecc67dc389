"""Shared parameter sets, samplers and oracle helpers.

The three hand-solvable sets P1/P2/P3 exercise the decoupled, the
generic and the no-coexistence regimes; PU is a frozen exemplar whose
coexistence equilibrium is clearly unstable (Hurwitz margin < -1e-2).
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from retrodyn import Equilibrium, LyapunovCoeffs, ModelParams, OmegaForm, State, vector_field
from retrodyn.equilibria import _inner_point
from retrodyn.model import PARAM_NAMES
from retrodyn.stability import _equilibrium_verdict

# One line per acceptance check, echoed after the test summary so the
# verdicts land in the run log (stdout capture would swallow them).
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance checks")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


@pytest.fixture
def p1():
    return ModelParams(a=1, a_I=2, b11=1, b12=0, b21=0, b22=1, alpha=0, m=1, k=1, sigma=2)


@pytest.fixture
def p2():
    return ModelParams(a=1, a_I=2, b11=1, b12=0.1, b21=0.1, b22=1, alpha=0.5, m=0.5, k=1, sigma=1)


@pytest.fixture
def p3():
    # p1 with the infected population not self-sustaining (a_I < m)
    return ModelParams(a=1, a_I=1, b11=1, b12=0, b21=0, b22=1, alpha=0, m=2, k=1, sigma=2)


@pytest.fixture
def p_unstable():
    # weak self-limitation, aggressive infection: coexistence exists but
    # the linearization has eigenvalues in the right half-plane
    return ModelParams(a=1, a_I=0.5, b11=0.1, b12=0.01, b21=0.01, b22=0.1,
                       alpha=2, m=2, k=30, sigma=0.2)


def log_uniform(rng, lo, hi):
    # math, not numpy: numpy's exp and log may pick a SIMD kernel per host,
    # and the draws must have the same bits everywhere.
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _scaled(p, factor, names):
    """p with each parameter in ``names`` multiplied by ``factor``."""
    return p.replace(**{name: getattr(p, name) * factor for name in names})


def sample_params(rng):
    """Moderate-magnitude random parameters; the coexistence equilibrium
    exists for roughly three quarters of the draws."""
    b11 = log_uniform(rng, 0.2, 3.0)
    b22 = log_uniform(rng, 0.2, 3.0)
    cross = 0.5 * min(b11, b22)
    return ModelParams(
        a=log_uniform(rng, 0.3, 3.0),
        a_I=log_uniform(rng, 0.3, 3.0),
        b11=b11,
        b12=float(rng.uniform(0.0, cross)),
        b21=float(rng.uniform(0.0, cross)),
        b22=b22,
        alpha=float(rng.uniform(0.0, 1.0)),
        m=log_uniform(rng, 0.2, 2.0),
        k=log_uniform(rng, 0.3, 3.0),
        sigma=log_uniform(rng, 0.3, 3.0),
    )


def sample_params_broad(rng):
    """Every parameter log-uniform over [1e-2, 1e2]; unlike
    ``sample_params`` it gives saddles (det < 0) among its inner
    equilibria."""
    return ModelParams(**{name: log_uniform(rng, 1e-2, 1e2) for name in PARAM_NAMES})


def sample_params_mild(rng):
    """Restricted ranges (weak infection, balanced rates), under which
    fixed-step RK4 stays accurate at moderate dt.

    Trajectories obey the bound proven in :mod:`retrodyn.integrator`
    for any parameters: with N = C + I, r = max(a, a_I) and
    q = min(a*b11, a_I*b22), N <= Nbar = max(N0, 2r/q),
    C <= max(C0, 1/b11) and V <= max(V0, k*m*Nbar/sigma).
    """
    return ModelParams(
        a=log_uniform(rng, 0.3, 3.0),
        a_I=log_uniform(rng, 0.5, 2.0),
        b11=log_uniform(rng, 0.3, 3.0),
        b12=float(rng.uniform(0.03, 0.3)),
        b21=float(rng.uniform(0.03, 0.3)),
        b22=log_uniform(rng, 0.3, 3.0),
        alpha=float(rng.uniform(0.0, 0.1)),
        m=log_uniform(rng, 0.3, 1.5),
        k=log_uniform(rng, 0.3, 1.5),
        sigma=log_uniform(rng, 0.5, 2.0),
    )


def _decision(p, alpha, k):
    # None where _inner_point finds no point, else the verdict there
    solved = _inner_point(p, alpha, k)
    return None if solved is None else _equilibrium_verdict(p, alpha, k, *solved)


def decisions_near_thresholds(rng, bases):
    """(existence changes, float decision, exact decision) at the 17
    alphas from -8 to +8 ulps around each change of the float decision
    (None, or the verdict at the inner equilibrium) found on a 401-point
    log alpha grid over [1e-3, 1e2] and located by float bisection, for
    ``bases`` sample_params draws with one k each.  The exact decision
    runs the same kernels on Fractions of the same floats."""
    step = (math.log(1e2) - math.log(1e-3)) / 400
    grid = [math.exp(math.log(1e-3) + i * step) for i in range(401)]
    out = []
    for _ in range(bases):
        p, k = sample_params(rng), log_uniform(rng, 1e-2, 1e3)
        exact = SimpleNamespace(**{name: Fraction(getattr(p, name)) for name in PARAM_NAMES})
        decisions = [_decision(p, alpha, k) for alpha in grid]
        for lo, hi, low, high in zip(grid, grid[1:], decisions, decisions[1:]):
            if low == high:
                continue
            while lo < (mid := (lo + hi) / 2) < hi:
                at = _decision(p, mid, k)
                if at == low:
                    lo = mid
                else:
                    hi, high = mid, at
            existence = (low is None) != (high is None)
            alphas = [hi]
            below = above = hi
            for _ in range(8):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
                alphas += [below, above]
            for alpha in alphas:
                out.append((existence, _decision(p, alpha, k), _decision(exact, Fraction(alpha), Fraction(k))))
    return out


def state_near(rng, point, spread):
    """Log-normal multiplicative perturbation of a strictly positive point."""
    return State(
        point.C * math.exp(rng.uniform(-spread, spread)),
        point.I * math.exp(rng.uniform(-spread, spread)),
        point.V * math.exp(rng.uniform(-spread, spread)),
    )


def eq_point(eq):
    """An equilibrium's point as the floats (C, I, V) the sweep kernels take."""
    return (eq.point.C, eq.point.I, eq.point.V)


def counting(monkeypatch, module, name):
    """Wrap ``module.name`` so that each call appends its positional
    arguments to the list returned."""
    calls = []
    func = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or func(*args))
    return calls


def refuse_objects(monkeypatch, *classes):
    """Make building a ModelParams (directly or by ``replace``), an
    Equilibrium, a State, LyapunovCoeffs, an OmegaForm or any of
    ``classes`` raise AssertionError, so code run under it is shown to
    work on plain floats."""
    def refuse(*args, **kwargs):
        raise AssertionError("built an object")

    for cls in (ModelParams, Equilibrium, State, LyapunovCoeffs, OmegaForm) + classes:
        monkeypatch.setattr(cls, "__init__", refuse)


def fd_jacobian(params, s, h=1e-6):
    """Central finite differences of vector_field, column by column."""
    J = np.empty((3, 3))
    base = np.array([s.C, s.I, s.V])
    for col in range(3):
        up = base.copy()
        dn = base.copy()
        up[col] += h
        dn[col] -= h
        fu = vector_field(params, State(*up)).as_array()
        fd = vector_field(params, State(*dn)).as_array()
        J[:, col] = (fu - fd) / (2.0 * h)
    return J
