"""Integrate the model and watch the Lyapunov function decay.

Runs the generic coexistence set from a perturbed start with both
stepping policies, compares their endpoints, then records a (W, dW/dt)
trace and prints a coarse view of the decay.  Full trajectories are
written as CSV next to this script (out/ subdirectory); the columns are
t,C,I,V and, for the trace, t,C,I,V,W,Wdot.
"""

import os

from retrodyn import (
    IntegrationMode,
    IntegrationOptions,
    LyapunovCoeffs,
    ModelParams,
    State,
    inner_equilibrium,
    integrate,
    lyapunov_trace,
    search_coeffs,
)

PARAMS = ModelParams(a=1, a_I=2, b11=1, b12=0.1, b21=0.1, b22=1, alpha=0.5, m=0.5, k=1, sigma=1)
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    eq = inner_equilibrium(PARAMS)
    print("coexistence equilibrium: (%.6g, %.6g, %.6g)" % (eq.point.C, eq.point.I, eq.point.V))

    s0 = State(1.0, 1.0, 1.0)
    fixed = integrate(PARAMS, s0, IntegrationOptions(t_end=40.0, dt=0.01))
    adapt = integrate(PARAMS, s0, IntegrationOptions(t_end=40.0, mode=IntegrationMode.ADAPTIVE_RK4))
    print("fixed    : %5d samples, endpoint (%.8g, %.8g, %.8g)"
          % (len(fixed.times), fixed.final_state().C, fixed.final_state().I, fixed.final_state().V))
    print("adaptive : %5d samples, endpoint (%.8g, %.8g, %.8g)"
          % (len(adapt.times), adapt.final_state().C, adapt.final_state().I, adapt.final_state().V))
    gap = max(abs(a - b) for a, b in zip(fixed.states[-1], adapt.states[-1]))
    print("endpoint gap between policies: %.2e" % gap)

    with open(os.path.join(OUT_DIR, "trajectory.csv"), "w") as fh:
        fixed.write_csv(fh)

    hit = search_coeffs(PARAMS)
    coeffs = hit[0] if hit is not None else LyapunovCoeffs(1.0, 1.0, 1.0)
    trace = lyapunov_trace(PARAMS, coeffs, s0, IntegrationOptions(t_end=40.0, dt=0.01))
    with open(os.path.join(OUT_DIR, "lyapunov_trace.csv"), "w") as fh:
        trace.write_csv(fh)

    print("\nLyapunov decay (weights A=%.4g B=%.4g D=%.4g):" % (coeffs.A, coeffs.B, coeffs.D))
    print("  %8s %14s %14s" % ("t", "W", "dW/dt"))
    n = len(trace.times)
    for idx in range(0, n, max(1, n // 10)):
        w, wd = trace.lyapunov_samples[idx]
        print("  %8.2f %14.6e %14.6e" % (trace.times[idx], w, wd))
    w = [sample[0] for sample in trace.lyapunov_samples]
    print("monotone non-increasing: %s" % all(b <= a + 1e-12 for a, b in zip(w, w[1:])))
    print("CSV written to %s" % OUT_DIR)


if __name__ == "__main__":
    main()
