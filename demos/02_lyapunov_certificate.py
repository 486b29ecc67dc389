"""Build a Lyapunov decay certificate for the coexistence equilibrium.

The derivative of the Volterra-type function W along trajectories is
the negative of a quadratic form in the deviations from equilibrium.
If weights (A, B, D) make that form positive definite (Sylvester's
minors all positive at the equilibrium), W decays and the equilibrium
is asymptotically stable.  This script

  1. verifies the -dW/dt == quadratic-form identity at random states,
  2. searches the weight grid for a definite form,
  3. reports the paper's scalar condition 4 in both variants (not a
     sufficient condition: it holds at the unstable set below too),

once for a stable parameter set and once for an unstable one, where
the search must come back empty-handed.
"""

import numpy as np

from retrodyn import (
    Condition4Variant,
    LyapunovCoeffs,
    ModelParams,
    State,
    classify_equilibrium,
    condition4,
    inner_equilibrium,
    omega_at,
    search_coeffs,
    w_dot,
)

STABLE = ModelParams(a=1, a_I=2, b11=1, b12=0.1, b21=0.1, b22=1, alpha=0.5, m=0.5, k=1, sigma=1)
UNSTABLE = ModelParams(a=1, a_I=0.5, b11=0.1, b12=0.01, b21=0.01, b22=0.1,
                       alpha=2, m=2, k=30, sigma=0.2)


def identity_check(params, eq, rng, n=200):
    coeffs = LyapunovCoeffs(0.7, 1.3, 1.0)
    pt = eq.point
    worst = 0.0
    for _ in range(n):
        factors = np.exp(rng.uniform(-1.5, 1.5, size=3))
        s = State(pt.C * factors[0], pt.I * factors[1], pt.V * factors[2])
        form = omega_at(params, coeffs, eq, s)
        d = np.array([s.V - pt.V, s.I - pt.I, s.C - pt.C])
        wd = w_dot(params, coeffs, eq, s)
        worst = max(worst, abs(form.value(d) + wd) / (1.0 + abs(wd)))
    return worst


def main():
    rng = np.random.default_rng(7)
    for label, params in (("stable set", STABLE), ("unstable set", UNSTABLE)):
        print("=" * 72)
        eq = inner_equilibrium(params)
        rep = classify_equilibrium(params, eq)
        print("%s: equilibrium (%.4g, %.4g, %.4g), locally %s"
              % (label, eq.point.C, eq.point.I, eq.point.V, rep.verdict.value))

        worst = identity_check(params, eq, rng)
        print("  identity -dW/dt == d.Omega.d, worst relative error over 200 states: %.2e" % worst)

        hit = search_coeffs(params, eq)
        if hit is None:
            print("  weight search: no positive definite form on the grid")
        else:
            coeffs, form = hit
            print("  weight search: A=%.6g B=%.6g D=%.6g" % (coeffs.A, coeffs.B, coeffs.D))
            print("  leading minors at the equilibrium: %.4g, %.4g, %.4g"
                  % (form.delta1, form.delta2, form.delta3))

        for variant in Condition4Variant:
            r = condition4(params, eq, variant)
            print("  scalar condition (%s): lhs=%.6g rhs=%.6g -> %s"
                  % (variant.value, r.lhs, r.rhs, "holds" if r.holds else "fails"))
    print("=" * 72)


if __name__ == "__main__":
    main()
