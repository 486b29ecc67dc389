"""The record types' contract: construction, repr, equality, hashing,
immutability, field order and pattern matching, one case per type.
Error messages on stderr embed these reprs."""

import pytest

from retrodyn import (
    Condition4Report,
    Condition4Variant,
    CubicCoeffs,
    Derivative,
    Equilibrium,
    EquilibriumKind,
    IntegrationMode,
    IntegrationOptions,
    LyapunovCoeffs,
    ModelParams,
    OmegaForm,
    StabilityReport,
    State,
    SweepCell,
    SweepGrid,
    SweepResult,
    Trajectory,
    Verdict,
)
from retrodyn.cli import RunConfig

P2 = ModelParams(a=1.0, a_I=2.0, b11=1.0, b12=0.1, b21=0.1, b22=1.0, alpha=0.5, m=0.5, k=1.0, sigma=1.0)
S = State(1.0, 2.0, 3.0)
GRID = SweepGrid(P2, (0.1, 0.2), (1.0, 2.0))
CELL = SweepCell(True, Verdict.STABLE, True, False, True)
OPTIONS = IntegrationOptions(10.0, 0.01, 1e-8, 1e-9, IntegrationMode.FIXED_RK4, 1_000_000)
COEFFS = LyapunovCoeffs(1.0, 2.0, 3.0)

# (type, its arguments in field order, how many of them a call must
# give: the rest equal their defaults, and the fields in vars() order)
CASES = [
    (ModelParams, tuple(vars(P2).values()), 10,
     ("a", "a_I", "b11", "b12", "b21", "b22", "alpha", "m", "k", "sigma")),
    (State, (1.0, 2.0, 3.0), 3, ("C", "I", "V")),
    (Derivative, (0.1, 0.2, 0.3), 3, ("dC", "dI", "dV")),
    (CubicCoeffs, (1.0, 2.0, 0.5), 3, ("p", "q", "r")),
    (Equilibrium, (S, EquilibriumKind.INNER), 2, ("point", "kind")),
    (LyapunovCoeffs, (1.0, 2.0, 3.0), 3, ("A", "B", "D")),
    (OmegaForm, (2.0, 3.0, 4.0, 0.1, 0.2, 0.3, S), 7,
     ("omega11", "omega22", "omega33", "omega12", "omega13", "omega23", "evaluated_at",
      "delta1", "delta2", "delta3")),
    (Condition4Report, (1.0, 2.0, False, Condition4Variant.CORRECTED), 4, ("lhs", "rhs", "holds", "variant")),
    (IntegrationOptions, (10.0, 0.01, 1e-8, 1e-9, IntegrationMode.FIXED_RK4, 1_000_000), 2,
     ("t_end", "dt", "rel_tol", "abs_tol", "mode", "max_steps")),
    (Trajectory, ([0.0, 1.0], [(1.0, 2.0, 3.0), (2.0, 3.0, 4.0)], None), 2, ("times", "states", "lyapunov_samples")),
    (StabilityReport, (CubicCoeffs(1.0, 2.0, 0.5), Verdict.STABLE, (1.0, 0.5, 1.5)), 3, ("cubic", "verdict", "margins")),
    (SweepGrid, (P2, (0.1, 0.2), (1.0, 2.0)), 3, ("base", "alpha_values", "k_values")),
    (SweepCell, (True, Verdict.STABLE, True, False, True), 5,
     ("inner_exists", "rh_verdict", "sylvester_pd", "cond4_as_written", "cond4_corrected")),
    (SweepResult, (GRID, [[CELL, CELL], [CELL, CELL]], 0.2, 2.0), 4, ("grid", "cells", "alpha0", "k0")),
    (RunConfig, (P2, S, OPTIONS, COEFFS, GRID), 5, ("params", "initial_state", "integration", "lyapunov", "sweep")),
]
UNHASHABLE = (Trajectory, SweepResult)  # frozen, but a list field does not hash


@pytest.mark.parametrize("cls, args, required, fields", CASES, ids=[case[0].__name__ for case in CASES])
def test_record_contract(cls, args, required, fields):
    init = fields[:len(args)]
    x = cls(*args)
    assert list(vars(x)) == list(fields)
    assert cls.__match_args__ == init
    assert cls(**dict(zip(init, args))) == x
    assert cls(*args[:required]) == x  # the rest by default
    assert repr(x) == "%s(%s)" % (cls.__qualname__, ", ".join(f"{name}={getattr(x, name)!r}" for name in fields))

    with pytest.raises(TypeError):
        cls(**dict(zip(init[1:], args[1:])))  # the first field is missing
    with pytest.raises(TypeError):
        cls(*args, unknown=1.0)
    with pytest.raises(TypeError):
        cls(*args, 1.0)

    y = cls(*args)
    assert y == x and not y != x
    assert x != tuple(vars(x).values())
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(y) == hash(x)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, args[0])
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert cls(*args) == x


def test_record_equality_and_repr_text():
    assert State(1.0, 2.0, 3.0) != State(1.0, 2.0, 4.0)
    assert State(1.0, 2.0, 3.0) != Derivative(1.0, 2.0, 3.0)
    assert P2 != P2.replace(k=2.0)
    assert repr(State(1.0, 2.0, 3.0)) == "State(C=1.0, I=2.0, V=3.0)"
    omega = OmegaForm(2.0, 3.0, 4.0, 0.1, 0.2, 0.3, State(1.0, 1.0, 1.0))
    assert repr(omega).endswith(f", delta1={omega.delta1!r}, delta2={omega.delta2!r}, delta3={omega.delta3!r})")
    assert (omega.delta1, omega.delta2) == (2.0, 2.0 * 3.0 - 0.1 * 0.1)
