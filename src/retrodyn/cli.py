"""Command line front end.

All commands read a strict JSON config file:

    {
      "params":        { ... the ten model parameters ... },   (required)
      "initial_state": {"C": ..., "I": ..., "V": ...},
      "integration":   {"t_end": ..., "dt": ..., "mode": "fixed"|"adaptive",
                        "rel_tol": ..., "abs_tol": ..., "max_steps": ...},
      "lyapunov":      {"A": ..., "B": ..., "D": ...},
      "sweep":         {"alpha_values": [...], "k_values": [...]}
    }

Unknown keys are rejected at every level; each command states which
sections it needs.  Exit codes: 0 analysis done, 1 the requested
analytic object does not exist (no coexistence equilibrium, no definite
form), 2 bad configuration or usage, 3 numerical failure at runtime.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from .equilibria import all_equilibria, inner_equilibrium
from .errors import DomainError, IntegrationError, ParameterError, _checked_float
from .integrator import IntegrationMode, IntegrationOptions, integrate, lyapunov_trace
from .lyapunov import Condition4Variant, LyapunovCoeffs, condition4, search_coeffs
from .model import PARAM_NAMES, ModelParams, State
from .stability import Verdict, classify_equilibrium
from .sweep import SweepGrid, stability_map

_SECTIONS = ("params", "initial_state", "integration", "lyapunov", "sweep")


@dataclass
class RunConfig:
    params: ModelParams
    initial_state: Optional[State]
    integration: Optional[IntegrationOptions]
    lyapunov: Optional[LyapunovCoeffs]
    sweep: Optional[SweepGrid]


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ParameterError(f"{where} must be a JSON object, got {type(obj).__name__}")
    return obj


def _reject_unknown(obj: dict, allowed, where: str):
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ParameterError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")


def _number(obj: dict, key: str, where: str, bound: Optional[str] = None) -> float:
    if key not in obj:
        raise ParameterError(f"missing key {key!r} in {where}")
    return _checked_float(f"{where}.{key}", obj[key], bound)


def _parse_params(section) -> ModelParams:
    obj = _require_mapping(section, "params")
    _reject_unknown(obj, PARAM_NAMES, "params")
    return ModelParams(**{name: _number(obj, name, "params") for name in PARAM_NAMES})


def _parse_initial_state(section) -> State:
    obj = _require_mapping(section, "initial_state")
    _reject_unknown(obj, ("C", "I", "V"), "initial_state")
    return State(*(_number(obj, key, "initial_state", ">=") for key in ("C", "I", "V")))


def _parse_integration(section) -> IntegrationOptions:
    obj = _require_mapping(section, "integration")
    allowed = ("t_end", "dt", "rel_tol", "abs_tol", "mode", "max_steps")
    _reject_unknown(obj, allowed, "integration")
    kwargs = {"t_end": _number(obj, "t_end", "integration")}
    for key in ("dt", "rel_tol", "abs_tol"):
        if key in obj:
            kwargs[key] = _number(obj, key, "integration")
    if "mode" in obj:
        mode = obj["mode"]
        values = {m.value: m for m in IntegrationMode}
        if mode not in values:
            raise ParameterError(f"integration.mode must be one of {sorted(values)}, got {mode!r}")
        kwargs["mode"] = values[mode]
    if "max_steps" in obj:
        kwargs["max_steps"] = obj["max_steps"]
    return IntegrationOptions(**kwargs)


def _parse_lyapunov(section) -> LyapunovCoeffs:
    obj = _require_mapping(section, "lyapunov")
    _reject_unknown(obj, ("A", "B", "D"), "lyapunov")
    return LyapunovCoeffs(*(_number(obj, key, "lyapunov") for key in ("A", "B", "D")))


def _parse_sweep(section, base: ModelParams) -> SweepGrid:
    obj = _require_mapping(section, "sweep")
    _reject_unknown(obj, ("alpha_values", "k_values"), "sweep")
    axes = {}
    for key in ("alpha_values", "k_values"):
        if key not in obj:
            raise ParameterError(f"missing key {key!r} in sweep")
        values = obj[key]
        if not isinstance(values, list):
            raise ParameterError(f"sweep.{key} must be an array, got {values!r}")
        axes[key] = values
    return SweepGrid(base=base, alpha_values=axes["alpha_values"], k_values=axes["k_values"])


def load_config(path: str) -> RunConfig:
    """Read and validate a config file into typed pieces."""
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read config {path!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config {path!r} is not valid JSON: {exc}") from exc

    top = _require_mapping(raw, "config")
    _reject_unknown(top, _SECTIONS, "config")
    if "params" not in top:
        raise ParameterError("config is missing the required 'params' section")
    params = _parse_params(top["params"])
    return RunConfig(
        params=params,
        initial_state=_parse_initial_state(top["initial_state"]) if "initial_state" in top else None,
        integration=_parse_integration(top["integration"]) if "integration" in top else None,
        lyapunov=_parse_lyapunov(top["lyapunov"]) if "lyapunov" in top else None,
        sweep=_parse_sweep(top["sweep"], params) if "sweep" in top else None,
    )


def _need(config: RunConfig, attr: str, command: str):
    value = getattr(config, attr)
    if value is None:
        raise ParameterError(f"command {command!r} requires the {attr!r} config section")
    return value


def _equilibrium_record(eq) -> dict:
    return {
        "kind": eq.kind.value,
        "C": eq.point.C,
        "I": eq.point.I,
        "V": eq.point.V,
        "residual": eq.residual,
    }


def cmd_equilibria(config: RunConfig, args) -> int:
    eqs = all_equilibria(config.params)
    for eq in eqs:
        print(json.dumps(_equilibrium_record(eq)))
    has_inner = any(eq.kind.value == "inner" for eq in eqs)
    return 0 if has_inner else 1


def cmd_simulate(config: RunConfig, args) -> int:
    s0 = _need(config, "initial_state", "simulate")
    opts = _need(config, "integration", "simulate")
    traj = integrate(config.params, s0, opts)
    traj.write_csv(sys.stdout)
    return 0


def cmd_stability(config: RunConfig, args) -> int:
    eq = inner_equilibrium(config.params)
    if eq is None:
        print("no coexistence equilibrium for these parameters", file=sys.stderr)
        return 1
    report = classify_equilibrium(config.params, eq)
    variant = Condition4Variant(args.variant)
    c4 = condition4(config.params, eq, variant)
    found = search_coeffs(config.params, eq)
    search_record = {"found": found is not None}
    if found is not None:
        coeffs, form = found
        search_record.update(
            {
                "A": coeffs.A,
                "B": coeffs.B,
                "D": coeffs.D,
                "minors": [form.delta1, form.delta2, form.delta3],
            }
        )
    print(
        json.dumps(
            {
                "equilibrium": _equilibrium_record(eq),
                "routh_hurwitz": {
                    "p": report.cubic.p,
                    "q": report.cubic.q,
                    "r": report.cubic.r,
                    "verdict": report.verdict.value,
                    "margins": list(report.margins),
                },
                "condition4": {
                    "variant": c4.variant.value,
                    "lhs": c4.lhs,
                    "rhs": c4.rhs,
                    "holds": c4.holds,
                },
                "coefficient_search": search_record,
            }
        )
    )
    return 0 if report.verdict is Verdict.STABLE else 1


def cmd_sweep(config: RunConfig, args) -> int:
    grid = _need(config, "sweep", "sweep")
    result = stability_map(grid)
    result.write_csv(sys.stdout)
    return 0


def cmd_lyapunov(config: RunConfig, args) -> int:
    s0 = _need(config, "initial_state", "lyapunov")
    opts = _need(config, "integration", "lyapunov")
    coeffs = _need(config, "lyapunov", "lyapunov")
    eq = inner_equilibrium(config.params)
    if eq is None:
        print("no coexistence equilibrium; nothing to trace", file=sys.stderr)
        return 1
    traj = lyapunov_trace(config.params, coeffs, eq, s0, opts)
    traj.write_csv(sys.stdout)
    return 0


_COMMANDS = {
    "equilibria": cmd_equilibria,
    "simulate": cmd_simulate,
    "stability": cmd_stability,
    "sweep": cmd_sweep,
    "lyapunov": cmd_lyapunov,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retrodyn",
        description="Equilibria, stability and Lyapunov analysis of a retrovirus dynamics model.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("equilibria", help="list all equilibria as JSON records")
    sub.add_parser("simulate", help="integrate the model and emit a CSV trajectory")
    stability = sub.add_parser("stability", help="analyze the coexistence equilibrium")
    stability.add_argument(
        "--variant",
        choices=[v.value for v in Condition4Variant],
        default=Condition4Variant.CORRECTED.value,
        help="which form of the scalar sufficient condition to report",
    )
    sub.add_parser("sweep", help="stability map over an (alpha, k) grid as CSV")
    sub.add_parser("lyapunov", help="trace W and dW/dt along a trajectory as CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        return _COMMANDS[args.command](config, args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
