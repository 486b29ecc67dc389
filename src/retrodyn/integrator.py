"""Time integration with a classical 4th-order Runge-Kutta scheme.

Two stepping policies share the same RK4 kernel:

  * fixed     : constant nominal step.  A proposed step that would push
                any population below -abs_tol is retried with half the
                step (repeatedly); once a shortened step is accepted the
                nominal step is resumed.
  * adaptive  : step doubling.  Each step is taken once at dt and twice
                at dt/2; the max-norm difference / 15 estimates the
                local error of the fine solution, which is accepted when
                the estimate stays below rel_tol*|state| + abs_tol.
                Accepted states are the fine (two half-step) ones.

Both policies raise IntegrationError when the step underflows
(1e-12 * t_end), the step budget is exhausted, or the state turns
non-finite at full precision.

Empirical cap: trajectories from nonnegative initial data stay below

    10 * (max(s0) + 1/min(b11, b22) + k*m/(sigma*min(b11, b22)))

in every coordinate.  This is an engineering bound used by the test
suite (the dynamics confine solutions, but no sharp invariant region
is computed here); it is generous against the logistic carrying
capacities and the virus balance level k*m*I/sigma.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import IO, Optional

import numpy as np

from .equilibria import Equilibrium
from .errors import DomainError, IntegrationError, ParameterError, _checked_float
from .lyapunov import LyapunovCoeffs, w_dot, w_value
from .model import ModelParams, State, _rhs

# Growth/shrink clamps for the adaptive step controller.
_SAFETY = 0.9
_SHRINK_MIN = 0.2
_GROW_MAX = 2.0


class IntegrationMode(enum.Enum):
    FIXED_RK4 = "fixed"
    ADAPTIVE_RK4 = "adaptive"


@dataclass(frozen=True)
class IntegrationOptions:
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

    def __post_init__(self):
        object.__setattr__(self, "t_end", _checked_float("t_end", self.t_end, ">"))
        if not isinstance(self.mode, IntegrationMode):
            raise ParameterError(f"mode must be an IntegrationMode, got {self.mode!r}")
        if self.dt is None:
            if self.mode is IntegrationMode.FIXED_RK4:
                raise ParameterError("fixed mode requires an explicit dt")
        else:
            object.__setattr__(self, "dt", _checked_float("dt", self.dt, ">"))
            if self.dt > self.t_end:
                raise ParameterError(f"dt={self.dt!r} exceeds t_end={self.t_end!r}")
        for name in ("rel_tol", "abs_tol"):
            value = _checked_float(name, getattr(self, name), ">")
            if not value < 1.0:
                raise ParameterError(f"{name} must lie in (0, 1), got {value!r}")
            object.__setattr__(self, name, value)
        if not (isinstance(self.max_steps, int) and not isinstance(self.max_steps, bool) and self.max_steps > 0):
            raise ParameterError(f"max_steps must be a positive integer, got {self.max_steps!r}")


@dataclass
class Trajectory:
    """Recorded solution samples; rows of ``states`` are (C, I, V).

    ``lyapunov_samples`` is an (n, 2) array of (W, Wdot) rows, filled by
    :func:`lyapunov_trace` only.
    """

    times: np.ndarray
    states: np.ndarray
    lyapunov_samples: Optional[np.ndarray] = None

    def final_state(self) -> State:
        C, I, V = self.states[-1]
        return State(float(C), float(I), float(V))

    def write_csv(self, stream: IO[str]):
        """Write samples as CSV with full float precision (%.17g)."""
        traced = self.lyapunov_samples is not None
        stream.write("t,C,I,V,W,Wdot\n" if traced else "t,C,I,V\n")
        for idx in range(len(self.times)):
            row = [self.times[idx], *self.states[idx]]
            if traced:
                row += [self.lyapunov_samples[idx, 0], self.lyapunov_samples[idx, 1]]
            stream.write(",".join("%.17g" % v for v in row) + "\n")


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


def _check_initial(s0: State):
    for name, value in (("initial C", s0.C), ("initial I", s0.I), ("initial V", s0.V)):
        _checked_float(name, value, ">=")


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
    _check_initial(s0)
    t_end = opts.t_end
    dt_min = 1e-12 * t_end
    dt_nom = opts.dt if opts.dt is not None else t_end / 100.0
    adaptive = opts.mode is IntegrationMode.ADAPTIVE_RK4
    neg_floor = -opts.abs_tol

    y = (s0.C, s0.I, s0.V)
    t = 0.0
    times = [0.0]
    states = [y]
    steps = 0
    dt = dt_nom

    while t < t_end:
        remaining = t_end - t
        dt_try = dt if dt < remaining else remaining
        is_last = dt_try >= remaining
        dt_next = dt

        while True:  # attempt loop: shrink dt_try until acceptable
            if adaptive:
                full = _rk4(params, y[0], y[1], y[2], dt_try)
                h = 0.5 * dt_try
                mid = _rk4(params, y[0], y[1], y[2], h)
                fine = _rk4(params, mid[0], mid[1], mid[2], h)
                proposal = fine
                finite = all(map(math.isfinite, full)) and all(map(math.isfinite, fine))
                if finite:
                    err = max(
                        abs(fine[0] - full[0]), abs(fine[1] - full[1]), abs(fine[2] - full[2])
                    ) / 15.0
                    tol = opts.rel_tol * max(abs(y[0]), abs(y[1]), abs(y[2])) + opts.abs_tol
                    if err > tol:
                        factor = max(_SHRINK_MIN, _SAFETY * (tol / err) ** 0.2)
                        dt_try = dt_try * factor
                        is_last = False
                        if dt_try < dt_min:
                            raise IntegrationError(
                                f"adaptive step underflow below {dt_min!r} at t={t!r}"
                            )
                        continue
                    if err == 0.0:
                        dt_next = dt_try * _GROW_MAX
                    else:
                        dt_next = dt_try * min(_GROW_MAX, max(_SHRINK_MIN, _SAFETY * (tol / err) ** 0.2))
            else:
                proposal = _rk4(params, y[0], y[1], y[2], dt_try)
                finite = all(map(math.isfinite, proposal))

            if finite and min(proposal) >= neg_floor:
                break
            dt_try = 0.5 * dt_try  # negativity or blow-up: retry shorter
            is_last = False
            if dt_try < dt_min:
                raise IntegrationError(
                    f"step underflow below {dt_min!r} at t={t!r} (state {y!r})"
                )

        y = proposal
        t = t_end if is_last else t + dt_try
        times.append(t)
        states.append(y)
        steps += 1
        if steps > opts.max_steps:
            raise IntegrationError(f"step budget max_steps={opts.max_steps} exhausted at t={t!r}")
        dt = dt_next if adaptive else dt_nom

    return Trajectory(times=np.array(times), states=np.array(states))


def _attach_lyapunov(
    params: ModelParams,
    coeffs: LyapunovCoeffs,
    eq: Equilibrium,
    traj: Trajectory,
) -> Trajectory:
    # Sampling W requires strictly positive populations at every record.
    n = len(traj.times)
    samples = np.empty((n, 2))
    for idx in range(n):
        C, I, V = traj.states[idx]
        if not (C > 0.0 and I > 0.0 and V > 0.0):
            raise DomainError(
                f"trajectory left the open positive octant at t={traj.times[idx]!r}: "
                f"({C!r}, {I!r}, {V!r})"
            )
        s = State(float(C), float(I), float(V))
        samples[idx, 0] = w_value(coeffs, eq, s)
        samples[idx, 1] = w_dot(params, coeffs, eq, s)
    return Trajectory(times=traj.times, states=traj.states, lyapunov_samples=samples)


def lyapunov_trace(
    params: ModelParams,
    coeffs: LyapunovCoeffs,
    eq: Equilibrium,
    s0: State,
    opts: IntegrationOptions,
) -> Trajectory:
    """Integrate from a strictly positive ``s0`` and sample W and dW/dt.

    Raises DomainError if any recorded state leaves the open octant
    (W is undefined there).
    """
    if not (s0.C > 0.0 and s0.I > 0.0 and s0.V > 0.0):
        raise DomainError(f"lyapunov trace needs a strictly positive start, got {s0!r}")
    traj = integrate(params, s0, opts)
    return _attach_lyapunov(params, coeffs, eq, traj)
