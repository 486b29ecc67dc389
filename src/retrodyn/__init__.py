"""Simulation and stability analysis for a three-population retrovirus
dynamics model (target cells, reproducing infected cells, free virus).

The public surface re-exports the model types, equilibrium solvers,
Routh-Hurwitz classification, Lyapunov-form machinery, RK4 integration
and the (alpha, k) sweep driver.
"""

from .equilibria import (
    Equilibrium,
    EquilibriumKind,
    all_equilibria,
    boundary_equilibria,
    inner_equilibrium,
    residual,
)
from .errors import DomainError, IntegrationError, ParameterError
from .integrator import (
    IntegrationMode,
    IntegrationOptions,
    Trajectory,
    integrate,
    lyapunov_trace,
    step_rk4,
)
from .lyapunov import (
    Condition4Report,
    Condition4Variant,
    LyapunovCoeffs,
    OmegaForm,
    condition4,
    omega_at,
    search_coeffs,
    volterra,
    w_dot,
    w_value,
)
from .model import (
    CubicCoeffs,
    Derivative,
    ModelParams,
    State,
    char_cubic,
    jacobian,
    vector_field,
)
from .stability import StabilityReport, Verdict, classify_equilibrium, routh_hurwitz_cubic
from .sweep import SweepCell, SweepGrid, SweepResult, evaluate_cell, find_alpha_margin, stability_map

__all__ = [
    "CubicCoeffs",
    "Condition4Report",
    "Condition4Variant",
    "Derivative",
    "DomainError",
    "Equilibrium",
    "EquilibriumKind",
    "IntegrationError",
    "IntegrationMode",
    "IntegrationOptions",
    "LyapunovCoeffs",
    "ModelParams",
    "OmegaForm",
    "ParameterError",
    "StabilityReport",
    "State",
    "SweepCell",
    "SweepGrid",
    "SweepResult",
    "Trajectory",
    "Verdict",
    "all_equilibria",
    "boundary_equilibria",
    "char_cubic",
    "classify_equilibrium",
    "condition4",
    "evaluate_cell",
    "find_alpha_margin",
    "inner_equilibrium",
    "integrate",
    "jacobian",
    "lyapunov_trace",
    "omega_at",
    "residual",
    "routh_hurwitz_cubic",
    "search_coeffs",
    "stability_map",
    "step_rk4",
    "vector_field",
    "volterra",
    "w_dot",
    "w_value",
]

__version__ = "0.1.0"
