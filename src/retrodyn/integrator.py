"""Time integration with a classical 4th-order Runge-Kutta scheme.

Two stepping policies share the same RK4 kernel and one accept/retry
rule:

  * fixed     : constant nominal step dt.
  * adaptive  : step doubling.  Each step is taken once at dt and twice
                at dt/2; the max-norm difference / 15 estimates the
                local error err of the fine (two half-step) solution,
                which is accepted when err <= tol = rel_tol*|state| +
                abs_tol.  The next dt is the accepted step times the
                controller factor min(2, max(0.2, 0.9*(tol/err)**0.2)).

A step is retried at half length when a population would fall below
-abs_tol or a value is non-finite, and (adaptive only) at the controller
factor, then in [0.2, 0.9), when err > tol.  Fixed mode starts its next
step from the one a retry shortened, and doubles the step back toward dt
after each step accepted at its first attempt, never above dt; the last
step's clamp to t_end is not a shortening.  A non-finite value is not
fatal: IntegrationError is raised only when the step drops below
1e-12 * t_end (below the smallest subnormal, 5e-324, when that product
underflows to 0) or the step budget is exhausted.

Bound: the exact solution from nonnegative initial data stays in a
box set by the parameters and the start.  With N = C + I,
r = max(a, a_I) and q = min(a*b11, a_I*b22), the infection terms cancel
in dN/dt, and the cross terms and -m*I are nonpositive, so

    dN/dt <= r*N - q*(C^2 + I^2) <= r*N - (q/2)*N^2.

Hence N <= Nbar = max(N0, 2r/q), C <= max(C0, 1/b11) (from
dC/dt <= a*C*(1 - b11*C)) and V <= max(V0, k*m*Nbar/sigma) (from
dV/dt <= k*m*Nbar - sigma*V).  The test suite checks RK4 output against
these bounds with a relative allowance of 1e-9 for the step error.

``lyapunov_trace`` integrates the same way and samples W and dW/dt at
each recorded row, relative to the inner equilibrium that it solves
from the parameters.
"""

from __future__ import annotations

import enum
import math
from typing import IO, Optional

from .errors import DomainError, IntegrationError, ParameterError, _checked_float
from .lyapunov import LyapunovCoeffs, _inner, _require_positive, _w, _w_dot
from .model import ModelParams, State, _Record, _rhs

# Growth/shrink clamps for the adaptive step controller.
_SAFETY = 0.9
_SHRINK_MIN = 0.2
_GROW_MAX = 2.0


class IntegrationMode(enum.Enum):
    FIXED_RK4 = "fixed"
    ADAPTIVE_RK4 = "adaptive"


class IntegrationOptions(_Record):
    """Stepping policy and tolerances for :func:`integrate`.

    ``dt`` is the nominal step (fixed mode, required) or the initial
    step (adaptive mode, defaults to t_end/100 when omitted).
    """

    t_end: float
    dt: Optional[float] = None
    rel_tol: float = 1e-8
    abs_tol: float = 1e-9
    mode: IntegrationMode = IntegrationMode.FIXED_RK4
    max_steps: int = 1_000_000

    def _post_init(self):
        self._set("t_end", _checked_float("t_end", self.t_end, ">"))
        if not isinstance(self.mode, IntegrationMode):
            raise ParameterError(f"mode must be an IntegrationMode, got {self.mode!r}")
        if self.dt is None:
            if self.mode is IntegrationMode.FIXED_RK4:
                raise ParameterError("fixed mode requires an explicit dt")
        else:
            self._set("dt", _checked_float("dt", self.dt, ">"))
            if self.dt > self.t_end:
                raise ParameterError(f"dt={self.dt!r} exceeds t_end={self.t_end!r}")
        self._set("rel_tol", _checked_float("rel_tol", self.rel_tol, ">"))
        if not self.rel_tol < 1.0:
            raise ParameterError(f"rel_tol must lie in (0, 1), got {self.rel_tol!r}")
        self._set("abs_tol", _checked_float("abs_tol", self.abs_tol, ">"))
        if not (isinstance(self.max_steps, int) and not isinstance(self.max_steps, bool) and self.max_steps > 0):
            raise ParameterError(f"max_steps must be a positive integer, got {self.max_steps!r}")


class Trajectory(_Record):
    """Recorded solution samples: a list of times, and a list of
    (C, I, V) tuples, one per time.

    ``lyapunov_samples`` is a list of (W, Wdot) tuples, one per time,
    filled by :func:`lyapunov_trace` only.
    """

    times: list[float]
    states: list[tuple[float, float, float]]
    lyapunov_samples: Optional[list[tuple[float, float]]] = None

    def final_state(self) -> State:
        return State(*self.states[-1])

    def write_csv(self, stream: IO[str]):
        """Write samples as CSV with full float precision (%.17g)."""
        traced = self.lyapunov_samples is not None
        columns = [self.times, *zip(*self.states)]
        if traced:
            columns += zip(*self.lyapunov_samples)
        row = ",".join(["%.17g"] * len(columns)) + "\n"
        stream.write("t,C,I,V,W,Wdot\n" if traced else "t,C,I,V\n")
        stream.writelines(map(row.__mod__, zip(*columns)))


def _rk4(p: ModelParams, C: float, I: float, V: float, dt: float) -> tuple:
    k1C, k1I, k1V = _rhs(p, C, I, V)
    h = 0.5 * dt
    k2C, k2I, k2V = _rhs(p, C + h * k1C, I + h * k1I, V + h * k1V)
    k3C, k3I, k3V = _rhs(p, C + h * k2C, I + h * k2I, V + h * k2V)
    k4C, k4I, k4V = _rhs(p, C + dt * k3C, I + dt * k3I, V + dt * k3V)
    w = dt / 6.0
    return (
        C + w * (k1C + 2.0 * (k2C + k3C) + k4C),
        I + w * (k1I + 2.0 * (k2I + k3I) + k4I),
        V + w * (k1V + 2.0 * (k2V + k3V) + k4V),
    )


def step_rk4(params: ModelParams, s: State, dt: float) -> State:
    """Single classical RK4 step of size ``dt`` (may be negative)."""
    C, I, V = _rk4(params, s.C, s.I, s.V, _checked_float("dt", dt, "!="))
    if not (math.isfinite(C) and math.isfinite(I) and math.isfinite(V)):
        raise IntegrationError(f"non-finite state after a step of {dt!r} from {s!r}")
    return State(C, I, V)


def _check_initial(s0: State) -> State:
    """``s0`` with each population checked to be a finite number >= 0, as floats."""
    return State(*(_checked_float(f"initial {name}", getattr(s0, name), ">=") for name in ("C", "I", "V")))


def integrate(params: ModelParams, s0: State, opts: IntegrationOptions) -> Trajectory:
    """Integrate from ``s0`` over [0, t_end], recording every accepted step.

    Args:
        params: model parameters.
        s0: nonnegative initial state.
        opts: stepping policy, tolerances and step budget.

    Returns:
        Trajectory with strictly increasing times, t=0 and t=t_end
        included, and every recorded population >= -abs_tol.
    """
    s0 = _check_initial(s0)
    t_end = opts.t_end
    dt_min = 1e-12 * t_end or math.ulp(0.0)
    dt = nominal = opts.dt if opts.dt is not None else t_end / 100.0
    adaptive = opts.mode is IntegrationMode.ADAPTIVE_RK4
    neg_floor = -opts.abs_tol

    C, I, V = s0.C, s0.I, s0.V
    t = 0.0
    times = [0.0]
    states = [(C, I, V)]
    max_rows = opts.max_steps + 1
    isfinite = math.isfinite

    while t < t_end:
        remaining = t_end - t
        dt_try = dt if dt < remaining else remaining
        while True:  # attempt loop: shrink dt_try until acceptable
            shrink = 0.5  # negativity or a non-finite value
            if adaptive:
                fC, fI, fV = _rk4(params, C, I, V, dt_try)
                h = 0.5 * dt_try
                mC, mI, mV = _rk4(params, C, I, V, h)
                nC, nI, nV = _rk4(params, mC, mI, mV, h)
                ok = (isfinite(fC) and isfinite(fI) and isfinite(fV)
                      and isfinite(nC) and isfinite(nI) and isfinite(nV))
                if ok:
                    err = max(abs(nC - fC), abs(nI - fI), abs(nV - fV)) / 15.0
                    tol = opts.rel_tol * max(abs(C), abs(I), abs(V)) + opts.abs_tol
                    factor = _GROW_MAX if err == 0.0 else min(
                        _GROW_MAX, max(_SHRINK_MIN, _SAFETY * (tol / err) ** 0.2))
                    if err > tol:  # factor < _SAFETY here
                        ok, shrink = False, factor
            else:
                nC, nI, nV = _rk4(params, C, I, V, dt_try)
                ok = isfinite(nC) and isfinite(nI) and isfinite(nV)
            if ok and nC >= neg_floor and nI >= neg_floor and nV >= neg_floor:
                break
            dt_try = dt_try * shrink
            if dt_try < dt_min:
                raise IntegrationError(f"step underflow below {dt_min!r} at t={t!r} (state {(C, I, V)!r})")

        # every shrink factor is < 1, so only an unshrunk step can reach t_end
        C, I, V = nC, nI, nV
        t = t_end if dt_try >= remaining else t + dt_try
        times.append(t)
        states.append((C, I, V))
        if len(times) > max_rows:
            raise IntegrationError(f"step budget max_steps={opts.max_steps} exhausted at t={t!r}")
        if adaptive:
            dt = dt_try * factor
        elif dt_try != nominal:  # fixed mode: keep a retry's step, else double it back
            dt = dt_try if dt_try < dt else min(2.0 * dt, nominal)

    return Trajectory(times=times, states=states)


def lyapunov_trace(params: ModelParams, coeffs: LyapunovCoeffs, s0: State, opts: IntegrationOptions) -> Trajectory:
    """Integrate from a strictly positive ``s0`` and sample W and dW/dt,
    relative to the inner equilibrium of ``params``.

    Each recorded row is sampled with the kernels of w_value and w_dot.

    ``params`` and ``s0`` are checked before integrating: ParameterError
    if ``params`` has no inner equilibrium or ``s0`` fails the check of
    :func:`integrate`, DomainError if a population of ``s0`` is 0 or a
    recorded state leaves the open octant (W is undefined there).
    """
    pt = _inner(params)
    s0 = _check_initial(s0)
    _require_positive(s0)
    traj = integrate(params, s0, opts)
    samples = []
    for t, (C, I, V) in zip(traj.times, traj.states):
        if not (C > 0.0 and I > 0.0 and V > 0.0):
            raise DomainError(f"trajectory left the open positive octant at t={t!r}: ({C!r}, {I!r}, {V!r})")
        samples.append((_w(coeffs, pt, C, I, V), _w_dot(params, coeffs, pt, C, I, V)))
    return Trajectory(times=traj.times, states=traj.states, lyapunov_samples=samples)
