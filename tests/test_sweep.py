import io
import math
import threading

import numpy as np
import pytest

from retrodyn import (
    Condition4Variant,
    Equilibrium,
    EquilibriumKind,
    ModelParams,
    ParameterError,
    State,
    SweepCell,
    SweepGrid,
    SweepResult,
    Verdict,
    classify_equilibrium,
    condition4,
    evaluate_cell,
    find_alpha_margin,
    inner_equilibrium,
    search_coeffs,
    stability_map,
)
import retrodyn.equilibria
import retrodyn.lyapunov
import retrodyn.sweep
from retrodyn.equilibria import _inner_point
from retrodyn.lyapunov import _WEIGHTS
from retrodyn.stability import _equilibrium_verdict
from retrodyn.sweep import _ABSENT, _INNER, _anchored_rectangle

from conftest import counting, log_axis, log_uniform, refuse_objects, sample_params, units_scaled
from test_acceptance import _family_maps

# Frozen: bisection endpoint for the P2 base at k = 1 and alpha_hi = 5
# (the analytic loss-of-stability point is 37/15, resolved here to the
# 5e-6 stop from the lower end 5e-7).
P2_ALPHA_MARGIN_AT_K1 = 2.466664567603588


def test_grid_validation(p2):
    for base in (None, p2.__dict__, "p2", {"a": 1}):
        # the same check and message for a grid, a cell and a margin search
        with pytest.raises(ParameterError, match="base must be a ModelParams") as want:
            SweepGrid(base=base, alpha_values=(0.1,), k_values=(1.0,))
        for call in (lambda: evaluate_cell(base, 0.5, 1.0), lambda: find_alpha_margin(base, 1.0, 2.0)):
            with pytest.raises(ParameterError) as got:
                call()
            assert str(got.value) == str(want.value)
    with pytest.raises(ParameterError):
        SweepGrid(base=p2, alpha_values=(), k_values=(1.0,))
    with pytest.raises(ParameterError):
        SweepGrid(base=p2, alpha_values=(0.1, 0.1), k_values=(1.0,))
    with pytest.raises(ParameterError):
        SweepGrid(base=p2, alpha_values=(0.2, 0.1), k_values=(1.0,))
    with pytest.raises(ParameterError, match="'k_values' must be > 0"):
        SweepGrid(base=p2, alpha_values=(0.1,), k_values=(0.0, 1.0))
    with pytest.raises(ParameterError):
        SweepGrid(base=p2, alpha_values=(0.1,), k_values=(-1.0,))
    with pytest.raises(ParameterError):
        SweepGrid(base=p2, alpha_values=(0.1,), k_values=(True,))
    with pytest.raises(ParameterError):
        SweepGrid(base=p2, alpha_values=(0.1, float("inf")), k_values=(1.0,))
    for axis in (5, None, 0.1):
        with pytest.raises(ParameterError, match="alpha_values"):
            SweepGrid(base=p2, alpha_values=axis, k_values=(1.0,))
    with pytest.raises(ParameterError, match="k_values"):
        SweepGrid(base=p2, alpha_values=(0.1,), k_values="ab")
    grid = SweepGrid(base=p2, alpha_values=[0.1, 0.2], k_values=[1])
    assert grid.alpha_values == (0.1, 0.2)
    assert grid.k_values == (1.0,)
    grid = SweepGrid(base=p2, alpha_values=np.array([0.1, 0.2]), k_values=(1, 2.0))
    assert grid.alpha_values == (0.1, 0.2)
    assert grid.k_values == (1.0, 2.0)
    assert all(type(v) is float for v in grid.alpha_values + grid.k_values)
    # each axis takes its parameter's rule: alpha may be 0, as in ModelParams
    grid = SweepGrid(base=p2, alpha_values=(0, 0.1), k_values=(1.0,))
    assert grid.alpha_values == (0.0, 0.1)
    with pytest.raises(ParameterError, match="'alpha_values' must be >= 0"):
        SweepGrid(base=p2, alpha_values=(-0.1, 0.1), k_values=(1.0,))


def test_evaluate_cell_matches_components(p2):
    alpha, k = 0.25, 1.5
    cell = evaluate_cell(p2, alpha, k)
    p = p2.replace(alpha=alpha, k=k)
    eq = inner_equilibrium(p)
    assert cell.inner_exists
    assert cell.rh_verdict is classify_equilibrium(p, eq).verdict
    assert cell.sylvester_pd == (search_coeffs(p, eq) is not None)
    assert cell.cond4_as_written == condition4(p, eq, Condition4Variant.AS_WRITTEN).holds
    assert cell.cond4_corrected == condition4(p, eq, Condition4Variant.CORRECTED).holds


@pytest.mark.parametrize(
    "alpha, k",
    [(-1.0, 1.0), (True, 1.0), (float("nan"), 1.0), (float("inf"), 1.0), ("x", 1.0),
     (10**400, 1.0), (0.5, 0.0), (0.5, -1.0), (-1.0, 0.0)],
)
def test_evaluate_cell_checks_inputs_as_replace_does(p2, alpha, k):
    # the same ParameterError as base.replace(alpha=alpha, k=k), alpha first
    with pytest.raises(ParameterError) as want:
        p2.replace(alpha=alpha, k=k)
    with pytest.raises(ParameterError) as got:
        evaluate_cell(p2, alpha, k)
    assert str(got.value) == str(want.value)


_P2 = dict(a=1, a_I=2, b11=1, b12=0.1, b21=0.1, b22=1, alpha=0.5, m=0.5, k=1, sigma=1)


def test_map_builds_no_params_equilibrium_or_cell(monkeypatch):
    # Each cell passes floats through the kernels and returns a shared
    # cell: no parameter set, equilibrium, state, weights, form or cell
    # is built, in the closed forms' range (P2), where a cell evaluates a
    # few grid points, or out of it, where the whole weight grid is.
    # P2 with every rate x 1e103 is out of the closed forms' range, so a
    # cell's sylvester_pd enumerates the whole weight grid
    grids = [SweepGrid(ModelParams(**_P2), log_axis(0.01, 10.0, 24), log_axis(0.1, 100.0, 24)),
             SweepGrid(units_scaled(ModelParams(**_P2), 1e103), log_axis(1e101, 1e105, 6), log_axis(0.1, 10.0, 4))]
    want = [stability_map(grid).cells for grid in grids]
    points = counting(monkeypatch, retrodyn.sweep, "_inner_point")
    evaluated = counting(monkeypatch, retrodyn.lyapunov, "_minors")
    refuse_objects(monkeypatch, SweepCell)
    for grid, whole, cells_want in zip(grids, (False, True), want):
        del points[:], evaluated[:]
        cells = stability_map(grid).cells
        assert cells == cells_want
        assert len(points) == len(grid.alpha_values) * len(grid.k_values)
        if whole:
            assert len(evaluated) >= len(_WEIGHTS) ** 2
        else:
            assert len(evaluated) <= 2 * len(points)
        cells = [c for row in cells for c in row]
        assert all(c is _ABSENT or c is _INNER[c.rh_verdict, c.sylvester_pd, c.cond4_as_written, c.cond4_corrected]
                   for c in cells)
        assert len({id(c) for c in cells}) >= 4


def test_unstable_cell_skips_the_weight_grid(p2, p_unstable, monkeypatch):
    # A definite Omega = -sym(P*J) at the equilibrium (P positive
    # diagonal) makes J Hurwitz, so an Unstable cell needs no weight grid.
    def refuse(p, alpha, k, pt):
        raise AssertionError("searched the weight grid")

    monkeypatch.setattr(retrodyn.sweep, "_grid_has_definite", refuse)
    for alpha in (1.5, 2.0, 3.0):
        for k in (20.0, 30.0, 45.0):
            cell = evaluate_cell(p_unstable, alpha, k)
            assert cell.rh_verdict is Verdict.UNSTABLE and cell.sylvester_pd is False
    with pytest.raises(AssertionError, match="weight grid"):
        evaluate_cell(p2, 0.5, 1.0)  # Stable


def _unit_cases(rng, count):
    """(base, time, population, alphas, ks): first each end of the unit
    ranges with one and with four alphas and ks, then ``count`` draws with
    one to four of each."""
    def case(time, population, n_alpha, n_k):
        return (sample_params(rng), time, population,
                [log_uniform(rng, 1e-3, 1e2) for _ in range(n_alpha)],
                [log_uniform(rng, 1e-2, 1e3) for _ in range(n_k)])

    ends = (1e-150, 1e150)
    for time in ends:
        for population in ends:
            for n in (1, 4):
                yield case(time, population, n, n)
    for _ in range(count):
        yield case(log_uniform(rng, 1e-150, 1e150), log_uniform(rng, 1e-150, 1e150), *rng.integers(1, 5, 2))


def test_unstable_equilibrium_has_no_definite_form():
    # At the equilibrium Omega = -sym(P*J) with P = diag(D/V^^2, B/I^^2,
    # A/C^^2) positive, so a definite Omega makes J Hurwitz (Lyapunov's
    # theorem); the sweep relies on it, in floats, to skip the weight
    # grid at Unstable cells.  Rates scale with the time unit and b_ij
    # and alpha with the population unit.
    checked = 0
    for index, (base, time, population, alphas, ks) in enumerate(_unit_cases(np.random.default_rng(131), 1000)):
        for alpha in alphas:
            for k in ks:
                p = units_scaled(base.replace(alpha=alpha, k=k), time, population)
                eq = inner_equilibrium(p)
                if eq is not None and _equilibrium_verdict(p, p.alpha, p.k, *_inner_point(p, p.alpha, p.k)) is Verdict.UNSTABLE:
                    checked += 1
                    assert search_coeffs(p, eq) is None, (index, p)
    assert checked >= 225, checked


def test_single_cell_map(p2):
    grid = SweepGrid(base=p2, alpha_values=(0.5,), k_values=(1.0,))
    res = stability_map(grid)
    assert res.cells[0][0] == evaluate_cell(p2, 0.5, 1.0)
    assert res.cells[0][0].rh_verdict is Verdict.STABLE
    assert (res.alpha0, res.k0) == (0.5, 1.0)


def _component_cell(base, alpha, k):
    # A cell from the public functions evaluate_cell stands for.
    p = base.replace(alpha=alpha, k=k)
    eq = inner_equilibrium(p)
    if eq is None:
        return SweepCell(False, None, None, None, None)
    return SweepCell(
        True,
        classify_equilibrium(p, eq).verdict,
        search_coeffs(p, eq) is not None,
        condition4(p, eq, Condition4Variant.AS_WRITTEN).holds,
        condition4(p, eq, Condition4Variant.CORRECTED).holds,
    )


def _csv_cell_by_cell(grid):
    # The sweep CSV built from the component functions, one cell and one row at a time.
    cells = [[_component_cell(grid.base, alpha, k) for k in grid.k_values] for alpha in grid.alpha_values]
    out = "alpha,k,inner_exists,rh_verdict,sylvester_pd,cond4_as_written,cond4_corrected\n"
    for alpha, row in zip(grid.alpha_values, cells):
        for k, c in zip(grid.k_values, row):
            fields = [c.inner_exists, c.rh_verdict, c.sylvester_pd, c.cond4_as_written, c.cond4_corrected]
            texts = ["" if f is None else f.value if isinstance(f, Verdict) else str(f).lower()
                     for f in fields]
            out += "%.17g,%.17g,%s\n" % (alpha, k, ",".join(texts))
    corner = _anchored_rectangle([[c.rh_verdict is Verdict.STABLE for c in row] for row in cells])
    if corner is not None:
        out += "# alpha0=%.17g,k0=%.17g\n" % (grid.alpha_values[corner[0]], grid.k_values[corner[1]])
    return cells, out


def _assert_map_matches_cells(grid):
    res = stability_map(grid)
    cells, csv = _csv_cell_by_cell(grid)
    for i, alpha in enumerate(grid.alpha_values):
        for j, k in enumerate(grid.k_values):
            cell = evaluate_cell(grid.base, alpha, k)
            assert res.cells[i][j] == cell == cells[i][j], (grid.base, alpha, k)
            assert cells[i][j] is not cell
    buf = io.StringIO()
    res.write_csv(buf)
    assert buf.getvalue() == csv
    # write_csv keeps each cell's text by the cell's identity: cells built
    # one by one, equal to the shared ones, write the same bytes
    buf = io.StringIO()
    SweepResult(grid, cells, res.alpha0, res.k0).write_csv(buf)
    assert buf.getvalue() == csv


def _random_log_axis(rng, n):
    return sorted(log_uniform(rng, 1e-3, 1e2) for _ in range(n))


def test_map_matches_per_cell_calls(p2):
    # The map and evaluate_cell against the component functions, and the
    # CSV against one formatted row by row: P2, then random bases on
    # random log grids of shapes 1x1, 1xn, nx1 and 7x13.
    _assert_map_matches_cells(SweepGrid(base=p2, alpha_values=log_axis(0.01, 1.0, 20),
                                        k_values=log_axis(0.1, 2.0, 20)))
    rng = np.random.default_rng(89)
    for n in range(240):
        n_alpha, n_k = [(1, 1), (1, None), (None, 1), (7, 13)][n % 4]
        grid = SweepGrid(base=sample_params(rng),
                         alpha_values=_random_log_axis(rng, n_alpha or int(rng.integers(2, 10))),
                         k_values=_random_log_axis(rng, n_k or int(rng.integers(2, 10))))
        _assert_map_matches_cells(grid)


def test_map_matches_per_cell_calls_on_rescaled_bases(monkeypatch):
    # Rates and populations rescaled by factors log-uniform on
    # [1e-150, 1e150], alpha by both: far from 1 the closed forms leave
    # their safe range, and _grid_has_definite enumerates the whole
    # weight grid, compared here cell by cell with the components.
    evaluated = counting(monkeypatch, retrodyn.lyapunov, "_minors")
    whole_grids = 0
    rng = np.random.default_rng(97)
    for _ in range(120):
        time, population = log_uniform(rng, 1e-150, 1e150), log_uniform(rng, 1e-150, 1e150)
        base = units_scaled(sample_params(rng), time, population)
        alphas = [alpha * time * population for alpha in _random_log_axis(rng, int(rng.integers(2, 8)))]
        grid = SweepGrid(base=base, alpha_values=alphas,
                         k_values=_random_log_axis(rng, int(rng.integers(2, 8))))
        # only the map's own points count, not the components' search_coeffs
        before = len(evaluated)
        stability_map(grid)
        whole_grids += len(evaluated) - before >= len(_WEIGHTS) ** 2
        _assert_map_matches_cells(grid)
    assert whole_grids


@pytest.mark.parametrize(
    "params, alpha_values, k_values",
    [
        # condition 4's squares overflow to inf; some margins are NaN
        (dict(_P2, a=1e308), log_axis(0.01, 10.0, 5), log_axis(0.1, 10.0, 5)),
        # a*sigma underflows to 0, so Cramer's rule divides in two steps
        (dict(a=3e-188, a_I=5.98, b11=9.1, b12=4.08, b21=1.47, b22=1.22,
              alpha=3.67, m=4.42, k=4.66, sigma=1.5e-295),
         log_axis(1e-300, 1.0, 6), log_axis(0.1, 10.0, 4)),
        # det = (alpha*k - 1)*(alpha*k - 2): exactly 0 on six cells, negative between
        (dict(a=1, a_I=1, b11=1, b12=0, b21=3, b22=2, alpha=1, m=0.5, k=1, sigma=0.5),
         (0.25, 0.5, 1.0, 1.5, 2.0, 4.0, 8.0), (0.5, 1.0, 2.0)),
        # the reduced system is consistent and singular at the middle cell,
        # where det is 4e-16 and Cramer's rule without the guard would give C, I, V > 0
        (dict(a=1.0, a_I=1.5214494436474328, b11=1.6933132905733062, b12=0.15788100282626316,
              b21=1.6025874303732093, b22=0.5240544995387667, alpha=1, m=0.4131232564739269, k=1,
              sigma=0.4131232564739269),
         (0.3, 0.6247555316198867, 1.2), (0.5, 0.8987712199209266, 1.8)),
        # P2 with every rate x 1e103: the cubic overflows, p*q - r is NaN
        (vars(units_scaled(ModelParams(**_P2), 1e103)), log_axis(1e101, 1e105, 6), log_axis(0.1, 10.0, 4)),
    ],
    ids=["cond4-overflow", "underflow", "det-zero", "consistent-singular", "nan-margins"],
)
def test_map_matches_per_cell_calls_on_edge_grids(params, alpha_values, k_values):
    _assert_map_matches_cells(SweepGrid(ModelParams(**params), alpha_values, k_values))


def test_map_rectangle_against_brute_force(p2):
    grid = SweepGrid(base=p2, alpha_values=log_axis(0.01, 1.0, 20),
                     k_values=log_axis(0.1, 2.0, 20))
    res = stability_map(grid)
    stable = np.array(
        [[c.inner_exists and c.rh_verdict is Verdict.STABLE for c in row] for row in res.cells]
    )
    corner = _brute_force_rectangle(stable)
    assert corner is not None
    assert res.alpha0 == grid.alpha_values[corner[0]]
    assert res.k0 == grid.k_values[corner[1]]


def test_no_coexistence_map(p3):
    # base with a_I < m: below alpha*k = 1 the infection cannot sustain
    # a coexistence state anywhere on the grid
    grid = SweepGrid(base=p3, alpha_values=log_axis(0.01, 0.4, 6),
                     k_values=log_axis(0.1, 2.0, 6))
    res = stability_map(grid)
    for row in res.cells:
        for cell in row:
            assert not cell.inner_exists
            assert cell.rh_verdict is None and cell.sylvester_pd is None
    assert res.alpha0 is None and res.k0 is None


def _brute_force_rectangle(stable):
    best = None
    best_area = 0
    n_alpha, n_k = stable.shape
    for i in range(n_alpha):
        for j in range(n_k):
            if not stable[: i + 1, : j + 1].all():
                continue
            area = (i + 1) * (j + 1)
            if area > best_area or (area == best_area and best is not None and i > best[0]):
                best_area = area
                best = (i, j)
    return best


def test_rectangle_random_oracle():
    rng = np.random.default_rng(79)
    for _ in range(300):
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        stable = rng.random(shape) < 0.7
        assert _anchored_rectangle(stable.tolist()) == _brute_force_rectangle(stable)


def test_rectangle_requires_anchor():
    stable = np.ones((3, 3), dtype=bool)
    stable[0, 0] = False
    assert _anchored_rectangle(stable) is None


def test_rectangle_tie_prefers_alpha_extent():
    # 2x1 and 1x2 rectangles tie on area; the taller one (alpha) wins
    stable = np.array([[True, True, False], [True, False, False]])
    assert _anchored_rectangle(stable) == (1, 0)


def test_csv_format(p2, p3):
    grid = SweepGrid(base=p2, alpha_values=(0.1, 0.5), k_values=(1.0, 2.0))
    res = stability_map(grid)
    buf = io.StringIO()
    res.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "alpha,k,inner_exists,rh_verdict,sylvester_pd,cond4_as_written,cond4_corrected"
    assert len(lines) == 1 + 4 + 1  # header, cells, corner comment
    first = lines[1].split(",")
    assert float(first[0]) == 0.1 and float(first[1]) == 1.0
    assert first[2] == "true" and first[3] in ("Stable", "Unstable", "Marginal")
    assert set(first[4:]) <= {"true", "false"}
    assert lines[-1] == "# alpha0=%.17g,k0=%.17g" % (res.alpha0, res.k0)

    grid3 = SweepGrid(base=p3, alpha_values=(0.1,), k_values=(1.0,))
    buf3 = io.StringIO()
    stability_map(grid3).write_csv(buf3)
    lines3 = buf3.getvalue().strip().split("\n")
    assert len(lines3) == 2  # no corner comment when nothing is stable
    assert lines3[1].endswith(",false,,,,")


def test_map_starts_no_thread_and_repeats(p2, monkeypatch):
    def refuse(self):
        raise AssertionError("stability_map started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    grid = SweepGrid(base=p2, alpha_values=log_axis(0.02, 0.9, 8),
                     k_values=log_axis(0.2, 1.8, 8))
    res1, res2 = stability_map(grid), stability_map(grid, max_workers=1)
    assert res1.cells == res2.cells
    assert (res1.alpha0, res1.k0) == (res2.alpha0, res2.k0)
    buf1, buf2 = io.StringIO(), io.StringIO()
    res1.write_csv(buf1)
    res2.write_csv(buf2)
    assert buf1.getvalue() == buf2.getvalue()


def _map_csv(grid):
    buf = io.StringIO()
    stability_map(grid).write_csv(buf)
    return buf.getvalue()


def test_map_csv_matches_grid_search(monkeypatch):
    # the sweep decides sylvester_pd through Omega's algebra; the bytes
    # must equal those of a map that runs search_coeffs in every cell
    grids = [grid for grid, _ in _family_maps().values()]
    grids.append(SweepGrid(base=sample_params(np.random.default_rng(83)),
                           alpha_values=log_axis(0.002, 10.0, 16),
                           k_values=log_axis(0.02, 100.0, 16)))
    fast = [_map_csv(grid) for grid in grids]

    def grid_search(base, alpha, k, pt):
        eq = Equilibrium(State(*pt), EquilibriumKind.INNER)
        return search_coeffs(base.replace(alpha=alpha, k=k), eq) is not None

    monkeypatch.setattr(retrodyn.sweep, "_grid_has_definite", grid_search)
    assert [_map_csv(grid) for grid in grids] == fast
    assert ",true,true," in fast[-1] and ",true,false," in fast[-1]


def test_alpha_margin_whole_range_stable(p2):
    assert find_alpha_margin(p2, 1.0, 2.0) == 2.0


def test_alpha_margin_frozen(p2):
    got = find_alpha_margin(p2, 1.0, 5.0)
    assert got == pytest.approx(P2_ALPHA_MARGIN_AT_K1, rel=1e-12)
    assert abs(got - 37.0 / 15.0) < 1e-5


def test_alpha_margin_brackets_transition(p2):
    margin = find_alpha_margin(p2, 1.0, 5.0)

    def stable_at(alpha):
        p = p2.replace(alpha=alpha, k=1.0)
        eq = inner_equilibrium(p)
        return eq is not None and classify_equilibrium(p, eq).verdict is Verdict.STABLE

    assert stable_at(margin)
    assert not stable_at(margin + 1e-4)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 12: the bisection assumes the stable alphas form one interval")
def test_alpha_margin_does_not_depend_on_alpha_hi():
    # alpha and k are placeholders; the stable alphas at k_fixed run up
    # to 1.8793 and over [2.6473, 3.6745), so the margin is 3.6745 for
    # either alpha_hi, but bisection from 10 ends at 1.87804.
    base = ModelParams(a=1.3786393907248482, a_I=0.271137052179412, b11=4.544161517175562,
                       b12=1.0397318121654304, b21=0.1429919060539375, b22=3.4923681907245343,
                       alpha=1.0, m=0.21614056282300886, k=1.0, sigma=0.17279386705892433)
    k_fixed = 4.853198435729832
    assert find_alpha_margin(base, k_fixed, 10.0) == find_alpha_margin(base, k_fixed, 100.0)


def _margin_by_components(base, k_fixed, alpha_hi):
    # find_alpha_margin's bisection, each probe from the public functions.
    def stable_at(alpha):
        p = base.replace(alpha=alpha, k=k_fixed)
        eq = inner_equilibrium(p)
        return eq is not None and classify_equilibrium(p, eq).verdict is Verdict.STABLE

    if not stable_at(1e-7 * alpha_hi):
        return None
    if stable_at(alpha_hi):
        return alpha_hi
    lo, hi = 1e-7 * alpha_hi, alpha_hi
    while hi - lo > 1e-6 * alpha_hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if stable_at(mid) else (lo, mid)
    return lo


def test_alpha_margin_probes_build_no_object(p2, p_unstable, monkeypatch):
    # Each probe passes floats through the kernels, and the bisection
    # ends where one probing through the public functions ends.
    rng = np.random.default_rng(101)
    cases = [(p2, 1.0, 5.0), (p2, 1.0, 2.0), (p_unstable, 30.0, 5.0)]
    cases += [(sample_params(rng), log_uniform(rng, 1e-2, 1e2), log_uniform(rng, 1e-1, 1e2))
              for _ in range(60)]
    want = [_margin_by_components(*case) for case in cases]
    probes = counting(monkeypatch, retrodyn.sweep, "_inner_point")
    refuse_objects(monkeypatch)
    assert find_alpha_margin(*cases[0]) == P2_ALPHA_MARGIN_AT_K1 and len(probes) > 20
    got = [find_alpha_margin(*case) for case in cases]
    assert got == want
    # None, alpha_hi itself (True) and a bisected edge (False) all occur
    assert {None if g is None else g == case[2] for g, case in zip(got, cases)} == {None, True, False}


def test_reduced_system_solved_once_per_cell_and_probe(p2, monkeypatch):
    # The verdict takes det from the solve that found the point, so a
    # cell, a probe and an inner classify_equilibrium each solve once.
    # Each solve calls _over_product once; lyapunov binds its own name,
    # so Omega's calls are not counted.
    solves = counting(monkeypatch, retrodyn.equilibria, "_over_product")
    probes = counting(monkeypatch, retrodyn.sweep, "_inner_point")
    assert evaluate_cell(p2, 0.5, 1.0).rh_verdict is Verdict.STABLE
    assert len(solves) == len(probes) == 1
    del solves[:], probes[:]
    assert find_alpha_margin(p2, 1.0, 10.0) == pytest.approx(37 / 15, abs=1e-5)
    assert len(solves) == len(probes) > 20
    eq = inner_equilibrium(p2)
    del solves[:]
    assert classify_equilibrium(p2, eq).verdict is Verdict.STABLE
    assert len(solves) == 1


def test_alpha_margin_none_when_unstable_at_floor(p_unstable):
    assert find_alpha_margin(p_unstable, 30.0, 5.0) is None


def test_alpha_margin_in_the_callers_units(p2):
    # P2 is stable along k = 1 up to 37/15, so a range far below the old
    # absolute lower end 1e-6 is stable throughout.
    alpha_hi = 10.0 * 2.0**-30
    assert find_alpha_margin(p2, 1.0, alpha_hi) == alpha_hi


def test_alpha_margin_ends_among_subnormals(monkeypatch):
    # Below alpha_hi ~ 2.5e-318 the stop 1e-6 * alpha_hi underflows to 0.
    # On this line alpha = 0 is stable and alpha_hi = 2e-318 is not, so
    # the bracket closes to adjacent floats, where the search must end.
    base = ModelParams(a=1e-13, a_I=2e3, b11=1.0, b12=0.0, b21=0.0, b22=1e-10,
                       alpha=0.0, m=1e3, k=1.0, sigma=1e3)
    inner_point = retrodyn.sweep._inner_point

    def probe(*args):
        probes.append(args)
        assert len(probes) < 100, "the bisection does not end"
        return inner_point(*args)

    probes = []
    monkeypatch.setattr(retrodyn.sweep, "_inner_point", probe)
    assert 0.0 < find_alpha_margin(base, 1e295, 2e-318) < 2e-318


def test_alpha_margin_validation(p2):
    with pytest.raises(ParameterError):
        find_alpha_margin(p2, 0.0, 1.0)
    for alpha_hi in (0.0, -0.0, -1.0, -math.inf):
        with pytest.raises(ParameterError, match="alpha_hi"):
            find_alpha_margin(p2, 1.0, alpha_hi)
    with pytest.raises(ParameterError, match="alpha_hi"):
        find_alpha_margin(p2, 1.0, True)
    with pytest.raises(ParameterError, match="k_fixed"):
        find_alpha_margin(p2, True, 1.0)
