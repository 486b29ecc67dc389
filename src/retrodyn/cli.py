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

The loader checks only the shape: each section is an object with its
required keys, no unknown key and no null value.  Every value is then
checked by the library object built from it.  ``_COMMANDS`` states
which sections each command needs.  Exit codes: 0 analysis done, 1 the
requested analytic object does not exist (no coexistence equilibrium, no
definite form), 2 bad configuration or usage (an unreadable, non-UTF-8 or
unparseable config too), 3 numerical failure at runtime, 141 stdout was
closed before the output was written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

from .equilibria import EquilibriumKind, all_equilibria, inner_equilibrium, residual
from .errors import DomainError, IntegrationError, ParameterError
from .integrator import IntegrationMode, IntegrationOptions, _check_initial, integrate, lyapunov_trace
from .lyapunov import Condition4Variant, LyapunovCoeffs, condition4, search_coeffs
from .model import PARAM_NAMES, ModelParams, State
from .stability import Verdict, classify_equilibrium
from .sweep import SweepGrid, stability_map

# Required and optional keys of each config section.
_KEYS = {
    "params": (PARAM_NAMES, ()),
    "initial_state": (("C", "I", "V"), ()),
    "integration": (("t_end",), ("dt", "rel_tol", "abs_tol", "mode", "max_steps")),
    "lyapunov": (("A", "B", "D"), ()),
    "sweep": (("alpha_values", "k_values"), ()),
}


@dataclass
class RunConfig:
    params: ModelParams
    initial_state: Optional[State]
    integration: Optional[IntegrationOptions]
    lyapunov: Optional[LyapunovCoeffs]
    sweep: Optional[SweepGrid]


def _shape(obj, where: str, required, optional) -> dict:
    """``obj`` itself, once it is a JSON object with every required key,
    no key outside ``required`` and ``optional``, and no null value."""
    if not isinstance(obj, dict):
        raise ParameterError(f"{where} must be a JSON object, got {type(obj).__name__}")
    allowed = (*required, *optional)
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ParameterError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ParameterError(f"missing key(s) {missing} in {where}")
    nulls = [key for key, value in obj.items() if value is None]
    if nulls:
        raise ParameterError(f"null value for {nulls} in {where}")
    return obj


def _integration_options(**fields) -> IntegrationOptions:
    # A config names the mode by its value; any other value reaches
    # IntegrationOptions as it is, and is rejected there.
    if "mode" in fields:
        fields["mode"] = next((m for m in IntegrationMode if m.value == fields["mode"]), fields["mode"])
    return IntegrationOptions(**fields)


def load_config(path: str) -> RunConfig:
    """Read a config file, check its shape, and build the typed pieces."""
    try:
        # JSON text is UTF-8 (RFC 8259), whatever the locale says.
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config {path!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParameterError(f"config {path!r} is not valid JSON: {exc}") from exc

    top = _shape(raw, "config", ("params",), tuple(_KEYS)[1:])

    def section(name, build):
        return build(**_shape(top[name], name, *_KEYS[name])) if name in top else None

    params = section("params", ModelParams)
    return RunConfig(
        params=params,
        initial_state=section("initial_state", lambda **s: _check_initial(State(**s))),
        integration=section("integration", _integration_options),
        lyapunov=section("lyapunov", LyapunovCoeffs),
        sweep=section("sweep", lambda **axes: SweepGrid(base=params, **axes)),
    )


def _finite_or_null(value):
    """The record with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _print_json(record: dict):
    # Strict JSON: NaN and Infinity are not JSON, and strict parsers reject them.
    print(json.dumps(_finite_or_null(record), allow_nan=False))


def _equilibrium_record(params: ModelParams, eq) -> dict:
    return {
        "kind": eq.kind.value,
        "C": eq.point.C,
        "I": eq.point.I,
        "V": eq.point.V,
        "residual": residual(params, eq.point),
    }


def cmd_equilibria(config: RunConfig, args) -> int:
    eqs = all_equilibria(config.params)
    for eq in eqs:
        _print_json(_equilibrium_record(config.params, eq))
    has_inner = any(eq.kind is EquilibriumKind.INNER for eq in eqs)
    return 0 if has_inner else 1


def cmd_simulate(config: RunConfig, args) -> int:
    traj = integrate(config.params, config.initial_state, config.integration)
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
    _print_json(
        {
            "equilibrium": _equilibrium_record(config.params, eq),
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
    return 0 if report.verdict is Verdict.STABLE else 1


def cmd_sweep(config: RunConfig, args) -> int:
    stability_map(config.sweep).write_csv(sys.stdout)
    return 0


def cmd_lyapunov(config: RunConfig, args) -> int:
    eq = inner_equilibrium(config.params)
    if eq is None:
        print("no coexistence equilibrium; nothing to trace", file=sys.stderr)
        return 1
    traj = lyapunov_trace(config.params, config.lyapunov, eq, config.initial_state, config.integration)
    traj.write_csv(sys.stdout)
    return 0


# Each command: its function, the config sections it needs besides
# params (checked in this order), and its help line.
_COMMANDS = {
    "equilibria": (cmd_equilibria, (), "list all equilibria as JSON records"),
    "simulate": (cmd_simulate, ("initial_state", "integration"),
                 "integrate the model and emit a CSV trajectory"),
    "stability": (cmd_stability, (), "analyze the coexistence equilibrium"),
    "sweep": (cmd_sweep, ("sweep",), "stability map over an (alpha, k) grid as CSV"),
    "lyapunov": (cmd_lyapunov, ("initial_state", "integration", "lyapunov"),
                 "trace W and dW/dt along a trajectory as CSV"),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call rather than at import; parse_args keeps no
    # state between calls, so one parser serves every call of main.
    parser = argparse.ArgumentParser(
        prog="retrodyn",
        description="Equilibria, stability and Lyapunov analysis of a retrovirus dynamics model.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text) for name, (_, _, text) in _COMMANDS.items()}
    commands["stability"].add_argument(
        "--variant",
        choices=[v.value for v in Condition4Variant],
        default=Condition4Variant.CORRECTED.value,
        help="which form of the paper's condition 4 (not a sufficient condition) to report",
    )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command, sections, _ = _COMMANDS[args.command]
    try:
        config = load_config(args.config)
        for name in sections:
            if getattr(config, name) is None:
                raise ParameterError(f"command {args.command!r} requires the {name!r} config section")
        code = command(config, args)
        # Output still buffered here would otherwise meet a closed stdout
        # only in the flush at interpreter exit, past this handler.
        sys.stdout.flush()
        return code
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout (say, `| head -1`).  Point fd 1 at
        # devnull so the flush at interpreter exit cannot fail again, and
        # exit as a process killed by SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
