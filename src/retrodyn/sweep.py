"""Parameter sweeps over the infection rate alpha and burst size k.

Every grid cell re-solves the model at (alpha, k) with the remaining
parameters taken from a base set, then records whether the coexistence
equilibrium exists and what the local and Lyapunov diagnostics say
about it.  A map cell (``evaluate_cell``) and a probe of
``find_alpha_margin`` take one path on Python floats: alpha, k and the
equilibrium's (C, I, V) pass through the kernels behind
``inner_equilibrium``, ``classify_equilibrium``, ``search_coeffs`` and
``condition4``, and no ``ModelParams``, ``Equilibrium``, ``State`` or
``SweepCell`` is built; a cell is one of the cells shared by every map.

A cell's ``sylvester_pd`` asks whether the weight grid of
``search_coeffs`` holds a definite form.  At the equilibrium
Omega = -sym(P*J), with J the Jacobian in (V, I, C) order and
P = diag(D/V^^2, B/I^^2, A/C^^2) positive, so a definite Omega makes J
Hurwitz (Lyapunov's theorem): an Unstable cell's ``sylvester_pd`` is
false without a look at the weights.  Stable and Marginal cells (a
Hopf margin of 0 or NaN in floats can still be exactly positive)
first try one grid point, Korobeinikov's weights (C^, I^, V^/k)
rounded up onto the grid, which is definite at most definite cells.
Otherwise they stop at the first definite point of the enumeration
``search_coeffs`` maximizes over: the points of the 41x41 grid inside
closed-form intervals (every point out of their range).  Each point is
checked as ``search_coeffs`` checks it, so the answer is
``search_coeffs(...) is not None``, on Python floats.
"""

from __future__ import annotations

import itertools
import math
from typing import IO, Optional, Sequence, Tuple

from .equilibria import _inner_point
from .errors import ParameterError, _checked_float
from .lyapunov import _condition4_sides, _grid_has_definite
from .model import _BOUND, ModelParams, _Record
from .stability import _STABLE, _UNSTABLE, Verdict, _equilibrium_verdict


def _check_base(base) -> None:
    if not isinstance(base, ModelParams):
        raise ParameterError(f"base must be a ModelParams, got {base!r}")


def _check_axis(name: str, values: Sequence[float], bound: str) -> tuple:
    try:
        items = iter(values)
    except TypeError:
        raise ParameterError(f"{name} must be a sequence of numbers, got {values!r}") from None
    out = tuple(_checked_float(name, v, bound) for v in items)
    if not out:
        raise ParameterError(f"{name} must be nonempty")
    for prev, nxt in zip(out, out[1:]):
        if not nxt > prev:
            raise ParameterError(f"{name} must be strictly increasing")
    return out


class SweepGrid(_Record):
    """Axes of the sweep plus the base parameter set the cells override."""

    base: ModelParams
    alpha_values: tuple
    k_values: tuple

    def _post_init(self):
        _check_base(self.base)
        self._set("alpha_values", _check_axis("alpha_values", self.alpha_values, _BOUND["alpha"]))
        self._set("k_values", _check_axis("k_values", self.k_values, _BOUND["k"]))


class SweepCell(_Record):
    """Diagnostics at one (alpha, k) cell; fields after the first are
    None when the coexistence equilibrium is absent there."""

    inner_exists: bool
    rh_verdict: Optional[Verdict]
    sylvester_pd: Optional[bool]
    cond4_as_written: Optional[bool]
    cond4_corrected: Optional[bool]


# The one cell without a coexistence equilibrium, shared by every such
# cell, and the 24 cells with one, keyed by (rh_verdict, sylvester_pd,
# cond4_as_written, cond4_corrected): evaluate_cell builds no cell.
_ABSENT = SweepCell(False, None, None, None, None)
_INNER = {
    key: SweepCell(True, *key)
    for key in itertools.product(Verdict, (False, True), (False, True), (False, True))
}


class SweepResult(_Record):
    grid: SweepGrid
    cells: list  # cells[i][j] for (alpha_values[i], k_values[j])
    alpha0: Optional[float]
    k0: Optional[float]

    def write_csv(self, stream: IO[str]):
        """Rows in row-major (alpha outer, k inner) order; a trailing
        comment carries the stable-rectangle corner when one exists."""
        lines = ["alpha,k,inner_exists,rh_verdict,sylvester_pd,cond4_as_written,cond4_corrected\n"]
        k_texts = ["%.17g," % k for k in self.grid.k_values]
        texts = {}  # each distinct cell's text, by id: the cells are shared
        for alpha, row in zip(self.grid.alpha_values, self.cells):
            alpha_text = "%.17g," % alpha
            for k_text, cell in zip(k_texts, row):
                text = texts.get(id(cell))
                if text is None:
                    text = texts[id(cell)] = _cell_text(cell)
                lines.append(alpha_text + k_text + text)
        if self.alpha0 is not None and self.k0 is not None:
            lines.append("# alpha0=%.17g,k0=%.17g\n" % (self.alpha0, self.k0))
        stream.write("".join(lines))


def _cell_text(cell: SweepCell) -> str:
    """A cell's CSV fields after (alpha, k), with the line's end."""
    if not cell.inner_exists:
        return "false,,,,\n"
    return "true,%s,%s,%s,%s\n" % (
        cell.rh_verdict.value,
        _csv_bool(cell.sylvester_pd),
        _csv_bool(cell.cond4_as_written),
        _csv_bool(cell.cond4_corrected),
    )


def _csv_bool(flag: bool) -> str:
    return "true" if flag else "false"


def evaluate_cell(base: ModelParams, alpha: float, k: float) -> SweepCell:
    """Full diagnostic battery for a single (alpha, k) combination.

    The cell is that of p = ``base.replace(alpha=alpha, k=k)``, checked
    as the constructor checks it: alpha first, with the same error.  The
    result is one of the shared cells, and its ``sylvester_pd`` is
    ``search_coeffs(p) is not None``, decided as the module
    docstring says.  A bad base fails as in ``SweepGrid``.
    """
    _check_base(base)
    alpha = _checked_float("alpha", alpha, _BOUND["alpha"])
    k = _checked_float("k", k, _BOUND["k"])
    pt = _inner_point(base, alpha, k)
    if pt is None:
        return _ABSENT
    verdict = _equilibrium_verdict(base, alpha, k, *pt)
    C, I, V, _ = pt
    definite = verdict is not _UNSTABLE and _grid_has_definite(base, alpha, k, (C, I, V))
    lhs, rhs_as_written, rhs_corrected = _condition4_sides(base, alpha, C, I, V)
    return _INNER[verdict, definite, lhs > rhs_as_written, lhs > rhs_corrected]


def _anchored_rectangle(stable) -> Optional[Tuple[int, int]]:
    """Largest-area rectangle of True anchored at [0, 0] of a 2-D grid
    of flags (nested lists).

    Returns the far-corner indices (i, j), or None when the anchor cell
    itself is False.  Area ties resolve toward the larger alpha extent.
    """
    n_alpha, n_k = len(stable), len(stable[0])
    best = None
    best_area = 0
    min_run = n_k
    for i in range(n_alpha):
        row = stable[i]
        run = 0
        while run < n_k and row[run]:
            run += 1
        if run == 0:
            break
        min_run = min(min_run, run)
        area = (i + 1) * min_run
        if area >= best_area:
            best_area = area
            best = (i, min_run - 1)
    return best


def stability_map(grid: SweepGrid, max_workers: Optional[int] = None) -> SweepResult:
    """Evaluate every cell of the grid in order and locate the largest
    all-stable rectangle anchored at the smallest (alpha, k) corner.

    ``max_workers`` is accepted and ignored, only because the benchmark
    in ``bench/run.py`` still calls ``stability_map(grid, max_workers=1)``.
    """
    alphas, ks = grid.alpha_values, grid.k_values
    cells = [[evaluate_cell(grid.base, alpha, k) for k in ks] for alpha in alphas]

    corner = _anchored_rectangle([[c.rh_verdict is _STABLE for c in row] for row in cells])
    if corner is None:
        alpha0 = k0 = None
    else:
        alpha0, k0 = alphas[corner[0]], ks[corner[1]]
    return SweepResult(grid=grid, cells=cells, alpha0=alpha0, k0=k0)


def find_alpha_margin(base: ModelParams, k_fixed: float, alpha_hi: float) -> Optional[float]:
    """Largest infection rate (up to ``alpha_hi``) keeping coexistence stable.

    Scans by bisection on [1e-7 * alpha_hi, alpha_hi] down to a bracket
    of 1e-6 * alpha_hi (of the smallest subnormal, 5e-324, when that
    product underflows to 0), so the search is in the caller's units;
    returns alpha_hi itself when it is stable and None when even the
    lower end is not.  Bisection assumes the stable alphas along the
    line form one interval; where they form several, the edge returned
    can depend on ``alpha_hi``.  A bad base fails as in ``SweepGrid``.
    """
    _check_base(base)
    k_fixed = _checked_float("k_fixed", k_fixed, ">")
    alpha_hi = _checked_float("alpha_hi", alpha_hi, ">")

    def stable_at(alpha: float) -> bool:
        pt = _inner_point(base, alpha, k_fixed)
        return pt is not None and _equilibrium_verdict(base, alpha, k_fixed, *pt) is _STABLE

    lo = 1e-7 * alpha_hi
    if not stable_at(lo):
        return None
    if stable_at(alpha_hi):
        return alpha_hi
    hi, tol = alpha_hi, 1e-6 * alpha_hi or math.ulp(0.0)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if stable_at(mid):
            lo = mid
        else:
            hi = mid
    return lo
