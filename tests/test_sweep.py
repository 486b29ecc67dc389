import io
import threading

import numpy as np
import pytest

from retrodyn import (
    Condition4Variant,
    ParameterError,
    SweepGrid,
    Verdict,
    classify_equilibrium,
    condition4,
    evaluate_cell,
    find_alpha_margin,
    inner_equilibrium,
    search_coeffs,
    stability_map,
)
import retrodyn.sweep
from retrodyn.sweep import _anchored_rectangle

from conftest import sample_params
from test_acceptance import _family_maps

# Frozen: bisection endpoint for the P2 base at k = 1 (the analytic
# loss-of-stability point is 37/15, resolved here to the 5e-6 stop).
P2_ALPHA_MARGIN_AT_K1 = 2.466664820937156


def log_axis(lo, hi, n):
    return [float(v) for v in np.logspace(np.log10(lo), np.log10(hi), n)]


def test_grid_validation(p2):
    with pytest.raises(ParameterError):
        SweepGrid(base=p2, alpha_values=(), k_values=(1.0,))
    with pytest.raises(ParameterError):
        SweepGrid(base=p2, alpha_values=(0.1, 0.1), k_values=(1.0,))
    with pytest.raises(ParameterError):
        SweepGrid(base=p2, alpha_values=(0.2, 0.1), k_values=(1.0,))
    with pytest.raises(ParameterError):
        SweepGrid(base=p2, alpha_values=(0.0, 0.1), k_values=(1.0,))
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


def test_single_cell_map(p2):
    grid = SweepGrid(base=p2, alpha_values=(0.5,), k_values=(1.0,))
    res = stability_map(grid)
    assert res.cells[0][0] == evaluate_cell(p2, 0.5, 1.0)
    assert res.cells[0][0].rh_verdict is Verdict.STABLE
    assert (res.alpha0, res.k0) == (0.5, 1.0)


def test_map_matches_per_cell_calls(p2):
    grid = SweepGrid(base=p2, alpha_values=log_axis(0.01, 1.0, 20),
                     k_values=log_axis(0.1, 2.0, 20))
    res = stability_map(grid)
    for i, alpha in enumerate(grid.alpha_values):
        for j, k in enumerate(grid.k_values):
            assert res.cells[i][j] == evaluate_cell(p2, alpha, k)


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
        assert _anchored_rectangle(stable) == _brute_force_rectangle(stable)


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
    monkeypatch.setattr(retrodyn.sweep, "_grid_has_definite",
                        lambda p, eq: search_coeffs(p, eq) is not None)
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


def test_alpha_margin_none_when_unstable_at_floor(p_unstable):
    assert find_alpha_margin(p_unstable, 30.0, 5.0) is None


def test_alpha_margin_validation(p2):
    with pytest.raises(ParameterError):
        find_alpha_margin(p2, 0.0, 1.0)
    with pytest.raises(ParameterError):
        find_alpha_margin(p2, 1.0, 1e-7)
    with pytest.raises(ParameterError, match="alpha_hi"):
        find_alpha_margin(p2, 1.0, True)
    with pytest.raises(ParameterError, match="k_fixed"):
        find_alpha_margin(p2, True, 1.0)
