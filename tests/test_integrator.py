import hashlib
import io
import math

import numpy as np
import pytest

from retrodyn import (
    DomainError,
    IntegrationError,
    IntegrationMode,
    IntegrationOptions,
    LyapunovCoeffs,
    ModelParams,
    ParameterError,
    State,
    Trajectory,
    boundary_equilibria,
    inner_equilibrium,
    integrate,
    lyapunov_trace,
    step_rk4,
    w_dot,
    w_value,
)
import retrodyn.integrator
from retrodyn.integrator import _check_initial

from conftest import counting, sample_params, sample_params_mild, state_near

ONES = LyapunovCoeffs(1.0, 1.0, 1.0)

# With I = V = 0 the model is a bare logistic in C, and with C = I = 0
# it is a bare exponential decay in V; both have closed forms.
LOGISTIC = ModelParams(a=1.0, a_I=1.0, b11=1.0, b12=0.0, b21=0.0, b22=1.0,
                       alpha=0.0, m=1.0, k=1.0, sigma=1.0)
DECAY = ModelParams(a=1.0, a_I=1.0, b11=1.0, b12=0.0, b21=0.0, b22=1.0,
                    alpha=0.0, m=1.0, k=1.0, sigma=2.0)


def logistic_exact(a, b11, c0, t):
    e = math.exp(a * t)
    return c0 * e / (1.0 + b11 * c0 * (e - 1.0))


def fixed(dt, t_end, **kw):
    return IntegrationOptions(t_end=t_end, dt=dt, mode=IntegrationMode.FIXED_RK4, **kw)


def adaptive(t_end, **kw):
    return IntegrationOptions(t_end=t_end, mode=IntegrationMode.ADAPTIVE_RK4, **kw)


def test_options_validation():
    with pytest.raises(ParameterError):
        IntegrationOptions(t_end=0.0, dt=0.1)
    with pytest.raises(ParameterError):
        IntegrationOptions(t_end=-1.0, dt=0.1)
    with pytest.raises(ParameterError):
        IntegrationOptions(t_end=1.0)  # fixed mode needs dt
    with pytest.raises(ParameterError):
        IntegrationOptions(t_end=1.0, dt=2.0)
    with pytest.raises(ParameterError):
        IntegrationOptions(t_end=1.0, dt=0.1, rel_tol=0.0)
    with pytest.raises(ParameterError, match=r"rel_tol must lie in \(0, 1\)"):
        IntegrationOptions(t_end=1.0, dt=0.1, rel_tol=1.5)
    with pytest.raises(ParameterError):
        IntegrationOptions(t_end=1.0, dt=0.1, abs_tol=0.0)
    with pytest.raises(ParameterError):
        IntegrationOptions(t_end=1.0, dt=0.1, max_steps=0)
    with pytest.raises(ParameterError):
        IntegrationOptions(t_end=1.0, dt=0.1, max_steps=True)
    with pytest.raises(ParameterError):
        IntegrationOptions(t_end=1.0, dt=0.1, mode="fixed")
    with pytest.raises(ParameterError, match="t_end"):
        IntegrationOptions(t_end=True, dt=True)
    # adaptive mode may omit dt
    opts = adaptive(10.0)
    assert opts.dt is None
    # numeric fields are stored as floats
    opts = IntegrationOptions(t_end=2, dt=1, rel_tol=np.float64(1e-6))
    assert [type(v) for v in (opts.t_end, opts.dt, opts.rel_tol, opts.abs_tol)] == [float] * 4
    # abs_tol is a population, so any positive size is allowed
    assert IntegrationOptions(t_end=1.0, dt=0.1, abs_tol=1.5).abs_tol == 1.5


def test_initial_state_validation(p2):
    with pytest.raises(ParameterError):
        integrate(p2, State(-0.1, 0.0, 0.0), fixed(0.1, 1.0))
    with pytest.raises(ParameterError):
        integrate(p2, State(0.0, float("nan"), 0.0), fixed(0.1, 1.0))
    with pytest.raises(ParameterError):
        integrate(p2, State(True, 0.1, 0.1), fixed(0.1, 1.0))
    with pytest.raises(ParameterError, match="initial V"):
        integrate(p2, State(0.1, 0.1, None), fixed(0.1, 1.0))
    # the check hands back the populations as floats
    checked = _check_initial(State(1, 0, np.float64(2.5)))
    assert checked == State(1.0, 0.0, 2.5)
    assert all(type(v) is float for v in (checked.C, checked.I, checked.V))


def test_step_single_accuracy():
    got = step_rk4(DECAY, State(0.0, 0.0, 1.0), 0.1)
    assert got.C == 0.0 and got.I == 0.0
    assert abs(got.V - math.exp(-0.2)) < 1e-5
    got = step_rk4(LOGISTIC, State(0.2, 0.0, 0.0), 0.1)
    assert abs(got.C - logistic_exact(1.0, 1.0, 0.2, 0.1)) < 1e-6


def test_step_backwards():
    fwd = step_rk4(DECAY, State(0.0, 0.0, 1.0), 0.01)
    back = step_rk4(DECAY, fwd, -0.01)
    assert abs(back.V - 1.0) < 1e-12


def test_step_at_equilibrium(p2):
    eq = inner_equilibrium(p2)
    after = step_rk4(p2, eq.point, 0.5)
    drift = max(abs(after.C - eq.point.C), abs(after.I - eq.point.I), abs(after.V - eq.point.V))
    assert drift <= 1e-14


def test_step_rejects_bad_dt(p2):
    with pytest.raises(ParameterError):
        step_rk4(p2, State(1.0, 1.0, 1.0), 0.0)
    with pytest.raises(ParameterError):
        step_rk4(p2, State(1.0, 1.0, 1.0), float("inf"))
    with pytest.raises(ParameterError):
        step_rk4(p2, State(1.0, 1.0, 1.0), True)


def test_step_nonfinite_state_raises(p2):
    with pytest.raises(IntegrationError):
        step_rk4(p2, State(1e150, 1e150, 1e150), 1e10)


def test_closed_form_exponential():
    traj = integrate(DECAY, State(0.0, 0.0, 1.0), fixed(1e-3, 1.0))
    assert abs(traj.final_state().V - math.exp(-2.0)) < 1e-8


def test_closed_form_logistic():
    traj = integrate(LOGISTIC, State(0.2, 0.0, 0.0), fixed(1e-3, 2.0))
    assert abs(traj.final_state().C - logistic_exact(1.0, 1.0, 0.2, 2.0)) < 1e-8


def test_times_grid_dyadic():
    traj = integrate(DECAY, State(0.0, 0.0, 1.0), fixed(0.125, 1.0))
    assert np.array_equal(traj.times, 0.125 * np.arange(9))


def test_times_endpoints():
    traj = integrate(DECAY, State(0.0, 0.0, 1.0), fixed(0.1, 1.0))
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 1.0
    assert np.all(np.diff(traj.times) > 0.0)


def _order_ratio(params, s0, t_end, dt, exact):
    e1 = abs(integrate(params, s0, fixed(dt, t_end)).final_state().as_array() - exact).max()
    e2 = abs(integrate(params, s0, fixed(dt / 2, t_end)).final_state().as_array() - exact).max()
    return e1 / e2


def test_fourth_order_exponential():
    exact = np.array([0.0, 0.0, math.exp(-2.0)])
    for dt in (0.1, 0.05):
        assert 12.0 < _order_ratio(DECAY, State(0.0, 0.0, 1.0), 1.0, dt, exact) < 20.0


def test_fourth_order_logistic():
    exact = np.array([logistic_exact(1.0, 1.0, 0.2, 2.0), 0.0, 0.0])
    for dt in (0.2, 0.1):
        assert 12.0 < _order_ratio(LOGISTIC, State(0.2, 0.0, 0.0), 2.0, dt, exact) < 20.0


def test_fourth_order_full_model(p2):
    s0 = State(1.0, 1.0, 1.0)
    ref = integrate(p2, s0, fixed(1e-4, 2.0)).final_state().as_array()
    assert 12.0 < _order_ratio(p2, s0, 2.0, 0.02, ref) < 20.0


def test_adaptive_tracks_reference(p2):
    s0 = State(1.0, 1.0, 1.0)
    ref = integrate(p2, s0, fixed(1e-4, 20.0)).final_state().as_array()
    traj = integrate(p2, s0, adaptive(20.0, rel_tol=1e-8, abs_tol=1e-12))
    err = abs(traj.final_state().as_array() - ref).max()
    assert err <= 100 * 1e-8
    # the controller actually moved the step around
    assert len(traj.times) < 20.0 / 1e-4


def test_adaptive_holds_equilibrium(p2):
    # per-step error rides at rel_tol*|y|, so the accumulated drift over
    # the run must stay within a modest multiple of that scale
    eq = inner_equilibrium(p2)
    traj = integrate(p2, eq.point, adaptive(100.0))
    drift = abs(traj.states - traj.states[0]).max()
    assert drift < 100 * 1e-8


_P2 = ModelParams(a=1, a_I=2, b11=1, b12=0.1, b21=0.1, b22=1, alpha=0.5, m=0.5, k=1, sigma=1)
_NEG = ModelParams(a=3.0, a_I=1.0, b11=0.5, b12=0.0, b21=0.0, b22=1.0,
                   alpha=0.0, m=1.0, k=1.0, sigma=1.0)
_HOT = ModelParams(a=50, a_I=50, b11=1, b12=0.1, b21=0.1, b22=1, alpha=5, m=0.5, k=10, sigma=1)


def test_negativity_rejection_shortens_step():
    # far above carrying capacity with a huge step: plain RK4 would dive
    # below zero, so the step must be halved until it stays admissible
    opts = fixed(2.5, 5.0)
    traj = integrate(_NEG, State(6.5, 0.0, 0.0), opts)
    assert traj.times[1] < 2.5
    assert traj.states.min() >= -opts.abs_tol
    assert traj.times[-1] == 5.0


def test_fixed_mode_resumes_a_shortened_step(monkeypatch):
    # A stiff start: a step from dt = 0.5 is halved about nine times
    # before it is accepted.  Retrying every step from dt took 11,007
    # _rk4 calls for 1,123 accepted steps; resuming from the shortened
    # step is held to two calls per accepted step.
    calls = counting(monkeypatch, retrodyn.integrator, "_rk4")
    traj = integrate(_HOT, State(1e3, 1e3, 1e3), fixed(0.5, 1.0))
    assert len(calls) <= 2 * (len(traj.times) - 1)


# Frozen bits of integrate on configs that between them take every
# branch of the accept/retry loop.  Any change to a shrink or growth
# factor, to the rejection order or to the last-step clamp shows here.
@pytest.mark.parametrize(
    "params, s0, opts, rows, sha256",
    [
        pytest.param(_P2, (1.0, 1.0, 1.0), adaptive(20.0, rel_tol=1e-8, abs_tol=1e-12), 54,
                     "c88ad39f9b25d21ca7007b9cd1004c8553042dbf11dd481e15928af0cf9ca58d",
                     id="error-rejection"),
        pytest.param(_NEG, (6.5, 0.0, 0.0), fixed(2.5, 5.0), 8,
                     "9b35b2f1c0e39892ea851c3261e300f6d923629a7579f7191c778d51803bc7a4",
                     id="negativity-fixed"),
        pytest.param(_NEG, (6.5, 0.0, 0.0), adaptive(5.0, dt=2.5), 60,
                     "78692dfe77862db6e53dc6a89a72efbbb7a929443d610e64a2615d924dd87339",
                     id="negativity-adaptive"),
        pytest.param(_P2, (0.0, 0.0, 0.0), adaptive(2.0), 8,
                     "935e6ecaa4f6252576451e6be7a5b871f22e564b5b2c605fd4484f6993eca19e",
                     id="zero-error-growth"),
        pytest.param(_P2, (1.0, 1.0, 1.0), fixed(0.3, 1.0), 5,
                     "6e4eeac128020a4b2a8be800c6e882c76a96a6b227831dbe2f68fd4a05ac8079",
                     id="last-step-clamp"),
        pytest.param(_HOT, (1e3, 1e3, 1e3), fixed(0.5, 1.0), 1123,
                     "7cb82bca666c5734988ec448b3d4e3ab4b9dcf7e7e67b2de7105e8fe160cc41e",
                     id="hot-fixed"),
        pytest.param(_HOT, (1e3, 1e3, 1e3), adaptive(1.0, dt=0.5, rel_tol=1e-3, abs_tol=1e-3), 571,
                     "f3b03f525e20a0acb11be6fb4531b73936e6c7a8483e5a0b74c56a649159ac5c",
                     id="hot-adaptive-nonfinite"),
    ],
)
def test_frozen_bits(params, s0, opts, rows, sha256):
    traj = integrate(params, State(*s0), opts)
    assert len(traj.times) == rows
    assert hashlib.sha256(traj.times.tobytes() + traj.states.tobytes()).hexdigest() == sha256


# Frozen bits of the W and dW/dt columns of lyapunov_trace, on a fixed
# and an adaptive run.
@pytest.mark.parametrize(
    "params, coeffs, s0, opts, rows, sha256",
    [
        pytest.param(_P2, ONES, (1.0, 1.0, 1.0), fixed(0.01, 40.0), 4001,
                     "464afb8a235ab381255b0a535f49de4b9c4005f85b914ae2d4afc9526dbb893b",
                     id="fixed"),
        pytest.param(_P2, LyapunovCoeffs(0.5, 2.0, 1.0), (1.0, 1.0, 1.0),
                     adaptive(20.0, rel_tol=1e-8, abs_tol=1e-12), 54,
                     "ada256a961f6eb5224a7084f310f8a0bbc690dce74495fab770a19a56fe6f030",
                     id="adaptive"),
    ],
)
def test_frozen_trace_bits(params, coeffs, s0, opts, rows, sha256):
    traj = lyapunov_trace(params, coeffs, inner_equilibrium(params), State(*s0), opts)
    assert len(traj.times) == rows
    assert hashlib.sha256(traj.lyapunov_samples.tobytes()).hexdigest() == sha256


def test_zero_state_is_fixed_point(p2):
    traj = integrate(p2, State(0.0, 0.0, 0.0), fixed(0.25, 2.0))
    assert np.all(traj.states == 0.0)


def test_step_budget():
    with pytest.raises(IntegrationError):
        integrate(DECAY, State(0.0, 0.0, 1.0), fixed(0.1, 1.0, max_steps=1))


@pytest.mark.parametrize("mode", list(IntegrationMode))
@pytest.mark.parametrize("t_end", [1.0, 1e-320])
def test_step_underflow(p2, mode, t_end):
    # every step from here overflows, so it is halved until it underflows;
    # at t_end = 1e-320, 1e-12 * t_end is 0 and the floor is the smallest
    # subnormal instead
    opts = IntegrationOptions(t_end=t_end, dt=t_end, mode=mode)
    with pytest.raises(IntegrationError, match="step underflow"):
        integrate(p2, State(1e200, 1e200, 1e200), opts)


def test_determinism(p2):
    opts = adaptive(10.0)
    a = integrate(p2, State(1.0, 0.5, 0.25), opts)
    b = integrate(p2, State(1.0, 0.5, 0.25), opts)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)


def test_random_runs_stay_nonnegative_and_bounded():
    # The integrator docstring's proven bound, times 1 + 1e-9 for the
    # RK4 step error, on the mild and the wide parameter families.
    rng = np.random.default_rng(71)
    opts = fixed(0.05, 50.0)
    slack = 1.0 + 1e-9
    for sampler in (sample_params_mild, sample_params):
        for _ in range(20):
            p = sampler(rng)
            C0, I0, V0 = rng.uniform(0.0, 2.0, size=3).tolist()
            traj = integrate(p, State(C0, I0, V0), opts)
            assert traj.states.min() >= -opts.abs_tol
            n_bar = max(C0 + I0, 2.0 * max(p.a, p.a_I) / min(p.a * p.b11, p.a_I * p.b22))
            C, I, V = traj.states.T
            assert (C + I).max() <= n_bar * slack
            assert C.max() <= max(C0, 1.0 / p.b11) * slack
            assert V.max() <= max(V0, p.k * p.m * n_bar / p.sigma) * slack


def test_csv_roundtrip(p2):
    traj = integrate(p2, State(1.0, 1.0, 1.0), fixed(0.25, 1.0))
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,C,I,V"
    assert len(lines) == 1 + len(traj.times)
    for idx, line in enumerate(lines[1:]):
        vals = [float(tok) for tok in line.split(",")]
        assert vals[0] == traj.times[idx]
        assert vals[1:] == list(traj.states[idx])


def test_csv_exact_text(p2):
    # every value printed with %.17g, one row per record
    def expected(header, rows):
        return header + "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)

    traj = integrate(p2, State(1.0, 1.0, 1.0), fixed(0.5, 1.0))
    assert len(traj.times) == 3
    buf = io.StringIO()
    traj.write_csv(buf)
    assert buf.getvalue() == expected(
        "t,C,I,V\n", ([t, *s] for t, s in zip(traj.times, traj.states))
    )

    traced = lyapunov_trace(p2, ONES, inner_equilibrium(p2), State(1.0, 1.0, 1.0), fixed(0.5, 1.0))
    buf = io.StringIO()
    traced.write_csv(buf)
    rows = ([t, *s, *w] for t, s, w in zip(traced.times, traced.states, traced.lyapunov_samples))
    assert buf.getvalue() == expected("t,C,I,V,W,Wdot\n", rows)


def test_trace_csv_header(p2):
    eq = inner_equilibrium(p2)
    traj = lyapunov_trace(p2, ONES, eq, State(1.0, 1.0, 1.0), fixed(0.25, 1.0))
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,C,I,V,W,Wdot"
    assert traj.lyapunov_samples.shape == (len(traj.times), 2)
    # full precision round-trip of the W column
    w_back = [float(line.split(",")[4]) for line in lines[1:]]
    assert w_back == list(traj.lyapunov_samples[:, 0])


def test_trace_at_equilibrium_is_flat(p2):
    eq = inner_equilibrium(p2)
    traj = lyapunov_trace(p2, ONES, eq, eq.point, fixed(0.5, 5.0))
    assert abs(traj.lyapunov_samples[:, 0]).max() < 1e-12


def test_trace_decreases_near_equilibrium(p2):
    eq = inner_equilibrium(p2)
    s0 = State(1.01 * eq.point.C, 1.01 * eq.point.I, 1.01 * eq.point.V)
    traj = lyapunov_trace(p2, ONES, eq, s0, fixed(0.01, 10.0))
    w = traj.lyapunov_samples[:, 0]
    assert w[0] > 0.0
    assert np.diff(w).max() <= 1e-12
    assert w[-1] < 0.01 * w[0]


def test_trace_slope_matches_wdot(p2):
    # centered difference of the sampled W column reproduces the sampled
    # dW/dt column to second order in the step (dyadic steps keep the
    # time grid exactly uniform, so the stencil spacing is exact)
    eq = inner_equilibrium(p2)
    rng = np.random.default_rng(73)
    s0 = state_near(rng, eq.point, 0.3)

    def worst(dt):
        traj = lyapunov_trace(p2, ONES, eq, s0, fixed(dt, 2.0))
        assert np.array_equal(traj.times, dt * np.arange(len(traj.times)))
        w = traj.lyapunov_samples[:, 0]
        wd = traj.lyapunov_samples[1:-1, 1]
        fd = (w[2:] - w[:-2]) / (2.0 * dt)
        return abs(fd - wd).max()

    e1, e2 = worst(2.0 ** -7), worst(2.0 ** -8)
    assert e1 < 1e-4
    assert 2.8 < e1 / e2 < 5.2


def test_trace_requires_positive_start(p2, monkeypatch):
    # every bad input is rejected before any integration work
    def no_integration(*args):
        raise AssertionError("integrate called")

    monkeypatch.setattr(retrodyn.integrator, "integrate", no_integration)
    eq = inner_equilibrium(p2)
    opts = fixed(0.1, 1.0)
    with pytest.raises(DomainError):
        lyapunov_trace(p2, ONES, eq, State(1.0, 0.0, 1.0), opts)
    for bad in ("x", float("nan"), -1.0):
        with pytest.raises(ParameterError, match="initial C"):
            lyapunov_trace(p2, ONES, eq, State(bad, 1.0, 1.0), opts)
    for boundary in boundary_equilibria(p2):
        with pytest.raises(ParameterError, match="inner equilibrium"):
            lyapunov_trace(p2, ONES, boundary, State(1.0, 1.0, 1.0), opts)


def test_attach_rejects_boundary_states(p2, monkeypatch):
    # the error names the first row that leaves the open octant; integrate
    # is replaced by one that returns a synthetic trajectory
    def trace(params, states):
        synth = Trajectory(times=np.array([0.0, 1.0, 2.0]), states=np.array(states))
        monkeypatch.setattr(retrodyn.integrator, "integrate", lambda *args: synth)
        return lyapunov_trace(params, ONES, inner_equilibrium(params), State(1.0, 1.0, 1.0), fixed(0.1, 1.0))

    with pytest.raises(DomainError, match=r"t=1\.0: \(1\.0, 0\.0, 1\.0\)"):
        trace(p2, [[1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [-1.0, 1.0, 1.0]])
    # a ratio V/V^ that underflows to 0 in an earlier row is reported first,
    # as when the rows were sampled one by one (here V^ = 3.75)
    q = ModelParams(a=1, a_I=2, b11=0.1, b12=0, b21=0, b22=0.1, alpha=0, m=0.5, k=1, sigma=1)
    with pytest.raises(DomainError, match=r"volterra term needs a positive argument, got 0\.0$"):
        trace(q, [[1.0, 1.0, 1.0], [1.0, 1.0, 5e-324], [1.0, 0.0, 1.0]])


def test_trace_matches_scalar_kernels():
    # W and dW/dt over the whole trajectory carry the bits of w_value and
    # w_dot at every row: a last-bit difference in a log shows here
    rng = np.random.default_rng(79)
    for i in range(24):
        while (eq := inner_equilibrium(p := sample_params_mild(rng))) is None:
            pass
        coeffs = LyapunovCoeffs(*(float(np.exp(rng.uniform(-3.0, 3.0))) for _ in range(3)))
        s0 = state_near(rng, eq.point, 1.5)
        opts = fixed(0.01, 20.0) if i % 2 else adaptive(20.0, rel_tol=1e-10, abs_tol=1e-12)
        traj = lyapunov_trace(p, coeffs, eq, s0, opts)
        for s, (w, wd) in zip(traj.states.tolist(), traj.lyapunov_samples.tolist()):
            assert (w, wd) == (w_value(coeffs, eq, State(*s)), w_dot(p, coeffs, eq, State(*s)))


def test_trace_overflow_is_silent():
    # huge weights overflow every sample to (inf, -inf), as on Python
    # floats, with no warning (the suite turns warnings into errors)
    q = ModelParams(a=1, a_I=0.8, b11=0.3, b12=0.05, b21=0.05, b22=0.3, alpha=0.5, m=1, k=1.2, sigma=0.5)
    huge = LyapunovCoeffs(A=1e308, B=1.0, D=1e308)
    traj = lyapunov_trace(q, huge, inner_equilibrium(q), State(20.0, 0.01, 0.01), fixed(0.25, 1.0))
    assert traj.lyapunov_samples.tolist() == [[math.inf, -math.inf]] * 5
