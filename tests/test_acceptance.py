"""Acceptance gate: eight end-to-end checks of the analysis pipeline.

Each check prints one PASS/FAIL line and registers it for the terminal
summary, so the verdicts land in the run log even when the rest of the
suite is quiet.  Tolerances are part of the contract; do not loosen
them to make a failing check pass.
"""

import functools
import math

import numpy as np
import pytest

from retrodyn import (
    CubicCoeffs,
    IntegrationOptions,
    LyapunovCoeffs,
    ModelParams,
    State,
    SweepGrid,
    Verdict,
    classify_equilibrium,
    condition4,
    inner_equilibrium,
    integrate,
    lyapunov_trace,
    omega_at,
    residual,
    routh_hurwitz_cubic,
    search_coeffs,
    stability_map,
    w_dot,
)

from conftest import ACCEPTANCE_LINES, sample_params, sample_params_mild, state_near

P1 = ModelParams(a=1, a_I=2, b11=1, b12=0, b21=0, b22=1, alpha=0, m=1, k=1, sigma=2)
P2 = ModelParams(a=1, a_I=2, b11=1, b12=0.1, b21=0.1, b22=1, alpha=0.5, m=0.5, k=1, sigma=1)
P3 = ModelParams(a=1, a_I=1, b11=1, b12=0, b21=0, b22=1, alpha=0, m=2, k=1, sigma=2)
PU = ModelParams(a=1, a_I=0.5, b11=0.1, b12=0.01, b21=0.01, b22=0.1,
                 alpha=2, m=2, k=30, sigma=0.2)

# Parameter families for the stability-region reproduction: the paper's
# condition 4 (not a sufficient condition) holds at each base point, and
# the swept (alpha, k) rectangle anchored at the smallest corner stays
# entirely in the locally stable regime.
FAMILIES = {
    "generic": P2,
    "weak-cross-coupling": ModelParams(a=1, a_I=2, b11=1, b12=0, b21=0, b22=1,
                                       alpha=0.1, m=1, k=0.5, sigma=2),
    "asymmetric": ModelParams(a=2, a_I=1.5, b11=0.8, b12=0.2, b21=0.15, b22=1.2,
                              alpha=0.1, m=0.4, k=0.5, sigma=1.5),
}


def _report(criterion: int, ok: bool, detail: str):
    line = "[acceptance %d] %s: %s" % (criterion, "PASS" if ok else "FAIL", detail)
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def _log_axis(lo, hi, n):
    return [float(v) for v in np.logspace(math.log10(lo), math.log10(hi), n)]


def test_01_equilibrium_correctness():
    rng = np.random.default_rng(101)
    found = 0
    worst = 0.0
    for _ in range(1000):
        p = sample_params(rng)
        eq = inner_equilibrium(p)
        if eq is None:
            continue
        found += 1
        worst = max(worst, residual(p, eq.point))
    eq1 = inner_equilibrium(P1)
    hand_ok = (
        eq1 is not None
        and (eq1.point.C, eq1.point.I, eq1.point.V) == (1.0, 0.5, 0.25)
        and inner_equilibrium(P3) is None
    )
    _report(
        1,
        worst < 1e-10 and hand_ok and found > 0,
        "coexistence equilibria: %d/1000 random sets, worst residual %.3g; hand cases exact"
        % (found, worst),
    )


def test_02_master_identity():
    rng = np.random.default_rng(103)
    param_sets = [P1, P2]
    while len(param_sets) < 7:
        p = sample_params(rng)
        if inner_equilibrium(p) is not None:
            param_sets.append(p)
    worst = 0.0
    for p in param_sets:
        eq = inner_equilibrium(p)
        pt = eq.point
        coeffs = LyapunovCoeffs(
            math.exp(rng.uniform(-2, 2)),
            math.exp(rng.uniform(-2, 2)),
            math.exp(rng.uniform(-2, 2)),
        )
        for _ in range(1000):
            s = state_near(rng, pt, 2.0)
            form = omega_at(p, coeffs, eq, s)
            d = np.array([s.V - pt.V, s.I - pt.I, s.C - pt.C])
            wd = w_dot(p, coeffs, eq, s)
            worst = max(worst, abs(form.value(d) + wd) / (1.0 + abs(wd)))
    _report(
        2,
        worst < 1e-10,
        "-dW/dt vs quadratic form on %d sets x 1000 states, worst rel err %.3g"
        % (len(param_sets), worst),
    )


def test_03_gradient_check():
    rng = np.random.default_rng(107)
    eq = inner_equilibrium(P2)
    coeffs = LyapunovCoeffs(1.0, 1.0, 1.0)
    s0 = state_near(rng, eq.point, 0.3)

    def worst_fd_error(dt):
        opts = IntegrationOptions(t_end=2.0, dt=dt)
        traj = lyapunov_trace(P2, coeffs, eq, s0, opts)
        samples = np.asarray(traj.lyapunov_samples)
        w = samples[:, 0]
        wd = samples[1:-1, 1]
        fd = (w[2:] - w[:-2]) / (2.0 * dt)
        return abs(fd - wd).max()

    e1 = worst_fd_error(2.0 ** -7)
    e2 = worst_fd_error(2.0 ** -8)
    ratio = e1 / e2
    _report(
        3,
        e2 > 0.0 and 2.8 < ratio < 5.2,
        "centered-difference error ratio under step halving %.3f (target 4 +- 30%%)" % ratio,
    )


@functools.lru_cache(maxsize=1)
def _family_maps():
    out = {}
    for name, base in FAMILIES.items():
        alpha_hi, n_alpha = (3.0, 12) if name == "generic" else (0.3, 10)
        grid = SweepGrid(
            base=base,
            alpha_values=_log_axis(1e-3, alpha_hi, n_alpha),
            k_values=_log_axis(1e-2, 0.8, 10),
        )
        out[name] = (grid, stability_map(grid))
    return out


def test_04_stable_rectangle_and_decay():
    details = []
    ok = True
    for name, base in FAMILIES.items():
        eq = inner_equilibrium(base)
        ok &= condition4(base, eq).holds
        grid, res = _family_maps()[name]
        ok &= res.alpha0 is not None and res.k0 is not None
        if not ok:
            details.append("%s: condition or rectangle missing" % name)
            break
        i0 = grid.alpha_values.index(res.alpha0)
        j0 = grid.k_values.index(res.k0)
        rect_stable = all(
            res.cells[i][j].inner_exists and res.cells[i][j].rh_verdict is Verdict.STABLE
            for i in range(i0 + 1)
            for j in range(j0 + 1)
        )
        ok &= rect_stable

        hit = search_coeffs(base, eq)
        ok &= hit is not None
        coeffs = hit[0] if hit is not None else LyapunovCoeffs(1.0, 1.0, 1.0)
        s0 = State(1.01 * eq.point.C, 1.01 * eq.point.I, 1.01 * eq.point.V)
        traj = lyapunov_trace(base, coeffs, eq, s0, IntegrationOptions(t_end=10.0, dt=0.01))
        w = np.asarray(traj.lyapunov_samples)[:, 0]
        rise = float(np.diff(w).max())
        ok &= rise <= 1e-9 and w[-1] < w[0]
        details.append(
            "%s: rect %dx%d stable, W rise %.2g" % (name, i0 + 1, j0 + 1, rise)
        )
    _report(4, ok, "; ".join(details))


def test_05_no_definite_form_at_unstable_cells():
    checked = 0
    contradictions = 0

    def scan(grid, res):
        nonlocal checked, contradictions
        for i, alpha in enumerate(grid.alpha_values):
            for j, k in enumerate(grid.k_values):
                cell = res.cells[i][j]
                if not cell.inner_exists:
                    continue
                checked += 1
                if cell.rh_verdict is not Verdict.UNSTABLE:
                    continue
                p = grid.base.replace(alpha=alpha, k=k)
                eq = inner_equilibrium(p)
                rep = classify_equilibrium(p, eq)
                if min(rep.margins) >= -1e-8:
                    continue  # not unstable beyond the guard band
                hit = search_coeffs(p, eq)
                if hit is not None and min(hit[1].delta1, hit[1].delta2, hit[1].delta3) > 1e-10:
                    contradictions += 1

    for name in FAMILIES:
        scan(*_family_maps()[name])
    # a block where the coexistence equilibrium exists but is genuinely
    # unstable, so the scan above is exercised on the interesting side
    pu_grid = SweepGrid(base=PU, alpha_values=(1.5, 2.0, 3.0), k_values=(20.0, 30.0, 45.0))
    pu_res = stability_map(pu_grid)
    n_unstable = sum(
        c.inner_exists and c.rh_verdict is Verdict.UNSTABLE for row in pu_res.cells for c in row
    )
    scan(pu_grid, pu_res)
    _report(
        5,
        contradictions == 0 and n_unstable == 9,
        "%d cells scanned (%d unstable), %d definite-form contradictions"
        % (checked, n_unstable, contradictions),
    )


def test_06_nonnegativity_and_bound():
    rng = np.random.default_rng(109)
    opts = IntegrationOptions(t_end=50.0, dt=0.05)
    worst_min = 0.0
    worst_ratio = 0.0
    for _ in range(100):
        p = sample_params_mild(rng)
        s0 = State(*(float(v) for v in rng.uniform(0.0, 2.0, size=3)))
        traj = integrate(p, s0, opts)
        states = np.asarray(traj.states)
        worst_min = min(worst_min, float(states.min()))
        bmin = min(p.b11, p.b22)
        cap = 10.0 * (max(s0.C, s0.I, s0.V) + 1.0 / bmin + p.k * p.m / (p.sigma * bmin))
        worst_ratio = max(worst_ratio, float(states.max()) / cap)
    _report(
        6,
        worst_min >= -1e-9 and worst_ratio < 1.0,
        "100 runs: min coordinate %.3g, peak/cap ratio %.3f" % (worst_min, worst_ratio),
    )


def test_07_integrator_order():
    decay = P1.replace(sigma=2.0)
    exact_v = math.exp(-2.0)

    def decay_err(dt):
        traj = integrate(decay, State(0.0, 0.0, 1.0), IntegrationOptions(t_end=1.0, dt=dt))
        return abs(traj.final_state().V - exact_v)

    logistic = P1
    c0, t_end = 0.2, 2.0
    e = math.exp(1.0 * t_end)
    exact_c = c0 * e / (1.0 + 1.0 * c0 * (e - 1.0))

    def logistic_err(dt):
        traj = integrate(logistic, State(c0, 0.0, 0.0), IntegrationOptions(t_end=t_end, dt=dt))
        return abs(traj.final_state().C - exact_c)

    r_decay = decay_err(0.1) / decay_err(0.05)
    r_logistic = logistic_err(0.2) / logistic_err(0.1)
    closed_ok = decay_err(1e-3) < 1e-8 and logistic_err(1e-3) < 1e-8
    _report(
        7,
        12.0 < r_decay < 20.0 and 12.0 < r_logistic < 20.0 and closed_ok,
        "halving ratios: exponential %.2f, logistic %.2f (target 16 +- 25%%); closed forms < 1e-8: %s"
        % (r_decay, r_logistic, closed_ok),
    )


def test_08_routh_hurwitz_vs_roots():
    rng = np.random.default_rng(113)
    compared = skipped = mismatches = 0
    for _ in range(500):
        c = CubicCoeffs(*rng.uniform(-3.0, 6.0, size=3))
        rep = routh_hurwitz_cubic(c)
        if min(abs(m) for m in rep.margins) <= 1e-10:
            skipped += 1
            continue
        peak = float(np.max(np.roots([1.0, c.p, c.q, c.r]).real))
        compared += 1
        if rep.verdict is Verdict.STABLE and not peak < 0.0:
            mismatches += 1
        elif rep.verdict is Verdict.UNSTABLE and not peak > 0.0:
            mismatches += 1
        elif rep.verdict is Verdict.MARGINAL:
            mismatches += 1  # cannot happen outside the skip band
    _report(
        8,
        mismatches == 0 and compared >= 490,
        "%d cubics vs root oracle (%d skipped near the marginal surface), %d mismatches"
        % (compared, skipped, mismatches),
    )
