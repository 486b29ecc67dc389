import hashlib
import io
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from retrodyn import (
    LyapunovCoeffs,
    ModelParams,
    State,
    SweepGrid,
    inner_equilibrium,
    stability_map,
    w_value,
)
import retrodyn.cli
from retrodyn.cli import main

P1 = {"a": 1, "a_I": 2, "b11": 1, "b12": 0, "b21": 0, "b22": 1,
      "alpha": 0, "m": 1, "k": 1, "sigma": 2}
P2 = {"a": 1, "a_I": 2, "b11": 1, "b12": 0.1, "b21": 0.1, "b22": 1,
      "alpha": 0.5, "m": 0.5, "k": 1, "sigma": 1}
P3 = {"a": 1, "a_I": 1, "b11": 1, "b12": 0, "b21": 0, "b22": 1,
      "alpha": 0, "m": 2, "k": 1, "sigma": 2}
PU = {"a": 1, "a_I": 0.5, "b11": 0.1, "b12": 0.01, "b21": 0.01, "b22": 0.1,
      "alpha": 2, "m": 2, "k": 30, "sigma": 0.2}

# frozen in test_lyapunov.py as well
P2_RHS_AS_WRITTEN = 0.003562797296871674
P2_RHS_CORRECTED = 0.0014014375690521148


def _model(payload):
    return ModelParams(**payload)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_equilibria_p1(tmp_path, capsys):
    cfg = write_config(tmp_path, {"params": P1})
    code, out, err = run_cli(["--config", cfg, "equilibria"], capsys)
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert len(records) == 4
    assert records[0]["kind"] == "inner"
    assert (records[0]["C"], records[0]["I"], records[0]["V"]) == (1.0, 0.5, 0.25)
    assert records[0]["residual"] == 0.0
    assert [r["kind"] for r in records[1:]] == ["extinction", "uninfected_only", "infected_only"]


def test_equilibria_no_inner(tmp_path, capsys):
    cfg = write_config(tmp_path, {"params": P3})
    code, out, err = run_cli(["--config", cfg, "equilibria"], capsys)
    assert code == 1
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert [r["kind"] for r in records] == ["extinction", "uninfected_only"]


@pytest.mark.parametrize(
    "payload",
    [
        {"params": {k: v for k, v in P1.items() if k != "sigma"}},
        {"params": dict(P1, extra=1.0)},
        {"params": P1, "spurious": {}},
        {"params": dict(P1, a=True)},
        {"params": dict(P1, m="fast")},
        {},
        {"params": P1, "integration": {"t_end": 1.0, "dt": 0.1, "max_steps": 1.5}},
        {"params": P1, "initial_state": {"C": "1", "I": 0.1, "V": 0.1}},
        {"params": dict(P1, a=10**400)},
        {"params": P1, "initial_state": {"C": -1.0, "I": 0.1, "V": 0.1}},
        {"params": P1, "integration": {"t_end": 1.0, "dt": None, "mode": "adaptive"}},
        {"params": P1, "sweep": {"alpha_values": 5, "k_values": [1.0]}},
        {"params": P1, "sweep": {"alpha_values": "ab", "k_values": [1.0]}},
        {"params": P1, "sweep": {"alpha_values": None, "k_values": [1.0]}},
        {"params": P1, "lyapunov": {"A": None, "B": 1.0, "D": 1.0}},
        {"params": P1, "initial_state": {"C": None, "I": 0.1, "V": 0.1}},
        {"params": P1, "integration": {"t_end": 1.0, "dt": 0.1, "mode": ["fixed"]}},
        {"params": [1, 2]},
        [],
    ],
)
def test_config_errors_exit_2(tmp_path, capsys, payload):
    cfg = write_config(tmp_path, payload)
    code, out, err = run_cli(["--config", cfg, "equilibria"], capsys)
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


def test_bad_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(["--config", str(path), "equilibria"], capsys)
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize(
    "data",
    [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
    ids=["not-utf8", "nested-past-recursion-limit"],
)
def test_undecodable_config_exit_2(tmp_path, capsys, data):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    code, out, err = run_cli(["--config", str(path), "equilibria"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_missing_file_exit_2(tmp_path, capsys):
    code, _, err = run_cli(["--config", str(tmp_path / "absent.json"), "equilibria"], capsys)
    assert code == 2


def test_usage_errors_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"params": P1})
    with pytest.raises(SystemExit) as exc:
        main(["--config", cfg])  # no command
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--config", cfg, "frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_help_lists_commands_in_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert "{equilibria,simulate,stability,sweep,lyapunov}" in usage


_SECTIONS = {
    "initial_state": {"C": 1.0, "I": 1.0, "V": 1.0},
    "integration": {"t_end": 1.0, "dt": 0.25},
    "lyapunov": {"A": 1.0, "B": 1.0, "D": 1.0},
}

_MISSING_SECTION = [
    ("simulate", ["integration"], "initial_state"),
    ("simulate", ["initial_state"], "integration"),
    ("sweep", [], "sweep"),
    # with none of its sections, the first one checked is named
    ("lyapunov", [], "initial_state"),
    ("lyapunov", ["initial_state", "lyapunov"], "integration"),
    ("lyapunov", ["initial_state", "integration"], "lyapunov"),
]


@pytest.mark.parametrize(
    "command, present, missing",
    _MISSING_SECTION,
    ids=[f"{command}-{missing}" for command, _, missing in _MISSING_SECTION],
)
def test_missing_section_exit_2(tmp_path, capsys, command, present, missing):
    cfg = write_config(tmp_path, {"params": P2, **{name: _SECTIONS[name] for name in present}})
    code, out, err = run_cli(["--config", cfg, command], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: command {command!r} requires the {missing!r} config section\n"


def test_simulate_header_and_rows(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "params": P2,
        "initial_state": {"C": 1.0, "I": 1.0, "V": 1.0},
        "integration": {"t_end": 1.0, "dt": 0.25},
    })
    code, out, _ = run_cli(["--config", cfg, "simulate"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,C,I,V"
    assert len(lines) == 6
    assert [float(tok) for tok in lines[1].split(",")] == [0.0, 1.0, 1.0, 1.0]


def test_simulate_closed_form(tmp_path, capsys):
    decay = dict(P1, sigma=2)
    cfg = write_config(tmp_path, {
        "params": decay,
        "initial_state": {"C": 0.0, "I": 0.0, "V": 1.0},
        "integration": {"t_end": 1.0, "dt": 0.001},
    })
    code, out, _ = run_cli(["--config", cfg, "simulate"], capsys)
    assert code == 0
    last = out.strip().split("\n")[-1].split(",")
    assert float(last[0]) == 1.0
    assert abs(float(last[3]) - math.exp(-2.0)) < 1e-8


def test_simulate_equilibrium_start_is_constant(tmp_path, capsys):
    eq = inner_equilibrium(_model(P2))
    cfg = write_config(tmp_path, {
        "params": P2,
        "initial_state": {"C": eq.point.C, "I": eq.point.I, "V": eq.point.V},
        "integration": {"t_end": 2.0, "dt": 0.5},
    })
    code, out, _ = run_cli(["--config", cfg, "simulate"], capsys)
    assert code == 0
    rows = [[float(tok) for tok in line.split(",")] for line in out.strip().split("\n")[1:]]
    base = rows[0][1:]
    for row in rows:
        assert max(abs(a - b) for a, b in zip(row[1:], base)) < 1e-12


def test_simulate_budget_exhausted_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "params": P2,
        "initial_state": {"C": 1.0, "I": 1.0, "V": 1.0},
        "integration": {"t_end": 1.0, "dt": 0.01, "max_steps": 1},
    })
    code, _, err = run_cli(["--config", cfg, "simulate"], capsys)
    assert code == 3
    assert "max_steps" in err


def test_step_underflow_exit_3(tmp_path, capsys):
    # 1e-12 * t_end underflows to 0 here; the step floor is then the
    # smallest subnormal, so a step that keeps failing still ends the run
    cfg = write_config(tmp_path, {
        "params": P2,
        "initial_state": {"C": 1e200, "I": 1e200, "V": 1e200},
        "integration": {"t_end": 1e-320, "dt": 1e-320, "mode": "adaptive"},
        "lyapunov": {"A": 1.0, "B": 1.0, "D": 1.0},
    })
    code, out, err = run_cli(["--config", cfg, "lyapunov"], capsys)
    assert (code, out) == (3, "")
    assert "step underflow" in err


def test_stability_p1(tmp_path, capsys):
    cfg = write_config(tmp_path, {"params": P1})
    code, out, _ = run_cli(["--config", cfg, "stability"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["equilibrium"]["kind"] == "inner"
    rh = rec["routh_hurwitz"]
    assert (rh["p"], rh["q"], rh["r"]) == (4.0, 5.0, 2.0)
    assert rh["verdict"] == "Stable"
    assert rh["margins"] == [4.0, 2.0, 18.0]
    c4 = rec["condition4"]
    assert c4["variant"] == "corrected"
    assert c4["rhs"] == 0.0 and c4["lhs"] == 2.0 and c4["holds"] is True
    search = rec["coefficient_search"]
    assert search["found"] is True
    assert search["D"] == 1.0
    assert all(m > 0.0 for m in search["minors"])


def test_stability_variant_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, {"params": P2})
    code, out, _ = run_cli(["--config", cfg, "stability", "--variant", "as-written"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["condition4"]["variant"] == "as-written"
    assert rec["condition4"]["rhs"] == P2_RHS_AS_WRITTEN

    code, out, _ = run_cli(["--config", cfg, "stability"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["condition4"]["variant"] == "corrected"
    assert rec["condition4"]["rhs"] == P2_RHS_CORRECTED


def test_stability_unstable_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {"params": PU})
    code, out, _ = run_cli(["--config", cfg, "stability"], capsys)
    assert code == 1
    rec = json.loads(out)
    assert rec["routh_hurwitz"]["verdict"] == "Unstable"
    assert rec["coefficient_search"]["found"] is False


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_stability_prints_strict_json(tmp_path, capsys):
    # P2 with every rate x 1e103: r overflows to inf and p*q - r to NaN,
    # which print as null; no warning reaches stderr
    rates = {name: 1e103 * P2[name] for name in ("a", "a_I", "m", "sigma", "alpha")}
    cfg = write_config(tmp_path, {"params": dict(P2, **rates)})
    code, out, err = run_cli(["--config", cfg, "stability"], capsys)
    assert (code, err) == (1, "")
    rec = json.loads(out, parse_constant=_reject_constant)
    rh = rec["routh_hurwitz"]
    assert rh["verdict"] == "Marginal"
    assert rh["r"] is None and rh["margins"][1:] == [None, None]
    assert rh["margins"][0] == rh["p"] > 0.0
    assert rec["coefficient_search"]["found"] is True


def test_nan_inner_equilibrium_is_absent(tmp_path, capsys):
    # P2 with every rate x 1e155: Cramer's rule overflows to NaN
    # coordinates, which must read as no coexistence state
    rates = {name: 1e155 * P2[name] for name in ("a", "a_I", "m", "sigma", "alpha")}
    cfg = write_config(tmp_path, {"params": dict(P2, **rates)})
    code, out, err = run_cli(["--config", cfg, "equilibria"], capsys)
    assert (code, err) == (1, "")
    kinds = [json.loads(line)["kind"] for line in out.strip().split("\n")]
    assert kinds == ["extinction", "uninfected_only", "infected_only"]
    code, out, err = run_cli(["--config", cfg, "stability"], capsys)
    assert (code, out) == (1, "")
    assert "no coexistence equilibrium" in err


def test_stability_at_an_overflowed_inner_point(tmp_path, capsys):
    # V^ overflows to inf: the weight search finds nothing, and the
    # report is still printed as strict JSON
    cfg = write_config(tmp_path, {"params": dict(P1, k=1e300, sigma=1e-10)})
    code, out, err = run_cli(["--config", cfg, "stability"], capsys)
    assert (code, err) == (1, "")
    rec = json.loads(out, parse_constant=_reject_constant)
    assert rec["coefficient_search"]["found"] is False


_TINY_PRODUCTS = {"a": 3e-188, "a_I": 5.98, "b11": 9.1, "b12": 4.08, "b21": 1.47, "b22": 1.22,
                  "alpha": 3.67, "m": 4.42, "k": 4.66, "sigma": 1.5e-295}


@pytest.mark.parametrize(
    "params, command, code",
    [
        (dict(P2, a=1e308), "stability", 0),
        (dict(P2, a=1e308), "sweep", 0),
        (_TINY_PRODUCTS, "equilibria", 1),
        (_TINY_PRODUCTS, "stability", 1),
        (_TINY_PRODUCTS, "sweep", 0),
        (dict(P2, a_I=1e-200, b22=1e-200, m=1e-201), "equilibria", 1),
    ],
)
def test_extreme_rates_answer(tmp_path, capsys, params, command, code):
    # a squared term past the float range (a = 1e308) and products that
    # underflow to 0 are answers, not crashes with exit 1
    sweep = {"alpha_values": [params["alpha"]], "k_values": [params["k"]]}
    cfg = write_config(tmp_path, {"params": params, "sweep": sweep})
    assert run_cli(["--config", cfg, command], capsys)[0] == code


def test_stability_no_inner_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {"params": P3})
    code, out, err = run_cli(["--config", cfg, "stability"], capsys)
    assert code == 1
    assert out == ""
    assert "no coexistence equilibrium" in err


def test_sweep_matches_library(tmp_path, capsys):
    sweep = {"alpha_values": [0.1, 0.5], "k_values": [1.0, 2.0]}
    cfg = write_config(tmp_path, {"params": P2, "sweep": sweep})
    code, out, _ = run_cli(["--config", cfg, "sweep"], capsys)
    assert code == 0

    grid = SweepGrid(base=_model(P2), alpha_values=sweep["alpha_values"],
                     k_values=sweep["k_values"])
    buf = io.StringIO()
    stability_map(grid).write_csv(buf)
    assert out == buf.getvalue()


def test_lyapunov_trace_columns(tmp_path, capsys):
    coeffs = {"A": 1.0, "B": 2.0, "D": 3.0}
    cfg = write_config(tmp_path, {
        "params": P2,
        "initial_state": {"C": 1.0, "I": 1.0, "V": 1.0},
        "integration": {"t_end": 1.0, "dt": 0.25},
        "lyapunov": coeffs,
    })
    code, out, _ = run_cli(["--config", cfg, "lyapunov"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,C,I,V,W,Wdot"
    # %.17g survives the float round-trip bit for bit
    w0 = float(lines[1].split(",")[4])
    assert w0 == w_value(_model(P2), LyapunovCoeffs(**coeffs), State(1.0, 1.0, 1.0))


def test_lyapunov_no_inner_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "params": P3,
        "initial_state": {"C": 1.0, "I": 1.0, "V": 1.0},
        "integration": {"t_end": 1.0, "dt": 0.25},
        "lyapunov": {"A": 1.0, "B": 1.0, "D": 1.0},
    })
    code, out, err = run_cli(["--config", cfg, "lyapunov"], capsys)
    assert code == 1
    assert "nothing to trace" in err


def test_lyapunov_flat_at_equilibrium(tmp_path, capsys):
    eq = inner_equilibrium(_model(P2))
    cfg = write_config(tmp_path, {
        "params": P2,
        "initial_state": {"C": eq.point.C, "I": eq.point.I, "V": eq.point.V},
        "integration": {"t_end": 2.0, "dt": 0.5},
        "lyapunov": {"A": 1.0, "B": 1.0, "D": 1.0},
    })
    code, out, _ = run_cli(["--config", cfg, "lyapunov"], capsys)
    assert code == 0
    w_col = np.array([float(line.split(",")[4]) for line in out.strip().split("\n")[1:]])
    assert abs(w_col).max() < 1e-12


def test_installed_entry_point(tmp_path):
    exe = shutil.which("retrodyn")
    if exe is None:
        pytest.skip("entry point not on PATH")
    cfg = write_config(tmp_path, {"params": P1})
    proc = subprocess.run([exe, "--config", cfg, "equilibria"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout.strip().split("\n")[0])["kind"] == "inner"


_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _module_argv(cfg, command):
    return [sys.executable, "-m", "retrodyn.cli", "--config", cfg, command]


def _module_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(_ROOT / "src"), os.environ.get("PYTHONPATH")])))


def test_entry_point_wiring(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    with open(_ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["scripts"]["retrodyn"] == "retrodyn.cli:main"
    assert not project.get("dependencies")  # the package needs no third-party package
    cfg = write_config(tmp_path, {"params": P1})
    proc = subprocess.run(_module_argv(cfg, "equilibria"), capture_output=True, text=True,
                          env=_module_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout.strip().split("\n")[0])["kind"] == "inner"


def _float_only_runs(tmp_path):
    """(config, command, exit code) of nine CLI runs that between them
    take every float-only path of the five commands.

    PU's grid has cells without an inner point, stable-definite cells
    and unstable ones; simulate and lyapunov step P2 in fixed mode and
    PU in adaptive mode.  P2 with every rate x 1e103 is out of the
    weight search's closed forms' range, where the whole weight grid is
    enumerated.
    """
    sweep = {"alpha_values": [0.001, 0.01, 2.0], "k_values": [1.0, 30.0]}
    pu = write_config(tmp_path, {"params": PU, "sweep": sweep}, "pu.json")
    far = dict(P2, **{name: 1e103 * P2[name] for name in ("a", "a_I", "m", "sigma", "alpha")})
    far = write_config(tmp_path, {"params": far, "sweep": {"alpha_values": [far["alpha"]],
                                                           "k_values": [far["k"]]}}, "far.json")
    trace = {"initial_state": {"C": 1.0, "I": 1.0, "V": 1.0}, "lyapunov": {"A": 1.0, "B": 1.0, "D": 1.0}}
    fixed = write_config(tmp_path, {"params": P2, **trace, "integration": {"t_end": 4.0, "dt": 0.01}},
                         "fixed.json")
    adaptive = write_config(tmp_path, {"params": PU, **trace,
                                       "integration": {"t_end": 4.0, "dt": 0.01, "mode": "adaptive"}},
                            "adaptive.json")
    return [(pu, "equilibria", 0), (pu, "sweep", 0), (pu, "stability", 1),
            (far, "sweep", 0), (far, "stability", 1),
            (fixed, "simulate", 0), (fixed, "lyapunov", 0), (adaptive, "simulate", 0), (adaptive, "lyapunov", 0)]


def test_equilibria_and_sweep_never_import_numpy(tmp_path):
    # numpy is most of a fresh process's start-up, and all five commands
    # compute on floats only: neither the import nor a run may load it.
    # Nor may they add dataclasses or inspect, which took a quarter of the
    # import; those are compared with the modules loaded before it, as a
    # host's site may load them.  The sweep's evaluate_cell and
    # find_alpha_margin, called directly, and classify_equilibrium at
    # every equilibrium of P2 (a boundary state's through
    # routh_hurwitz_cubic) compute on floats as well.
    runs = _float_only_runs(tmp_path)
    script = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "def added():\n"
        "    return sorted({'numpy'} & set(sys.modules) | {'dataclasses', 'inspect'} & (set(sys.modules) - before))\n"
        "import retrodyn.cli, retrodyn.sweep\n"
        "loaded = [added()]\n"
        "for cfg, command, code in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert retrodyn.cli.main(['--config', cfg, command]) == code, (cfg, command)\n"
        "    loaded.append(added())\n"
        "base = retrodyn.ModelParams(**json.loads(sys.argv[2]))\n"
        "assert retrodyn.sweep.evaluate_cell(base, 0.5, 1.0).inner_exists\n"
        "assert retrodyn.sweep.find_alpha_margin(base, 1.0, 10.0) is not None\n"
        "for eq in retrodyn.all_equilibria(base):\n"
        "    retrodyn.classify_equilibrium(base, eq)\n"
        "loaded.append(added())\n"
        "print(loaded)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs), json.dumps(P2)], capture_output=True,
                          text=True, env=_module_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "%r\n" % ([[]] * (2 + len(runs)),)


def test_package_runs_with_numpy_unimportable(tmp_path):
    # The package declares no dependency: with every import of numpy
    # failing, the nine runs and each public routine that returns a
    # matrix or steps the model still work.
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "import retrodyn, retrodyn.cli\n"
        "for cfg, command, code in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert retrodyn.cli.main(['--config', cfg, command]) == code, (cfg, command)\n"
        "p = retrodyn.ModelParams(**json.loads(sys.argv[2]))\n"
        "eq, s = retrodyn.inner_equilibrium(p), retrodyn.State(1.0, 1.0, 1.0)\n"
        "retrodyn.char_cubic(retrodyn.jacobian(p, eq.point))\n"
        "coeffs, _ = retrodyn.search_coeffs(p)\n"
        "retrodyn.omega_at(p, coeffs, s).as_matrix()\n"
        "retrodyn.w_value(p, coeffs, s), retrodyn.w_dot(p, coeffs, s)\n"
        "retrodyn.step_rk4(p, s, 0.01)\n"
        "opts = retrodyn.IntegrationOptions(t_end=1.0, dt=0.25)\n"
        "retrodyn.integrate(p, s, opts)\n"
        "retrodyn.lyapunov_trace(p, coeffs, s, opts)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(_float_only_runs(tmp_path)), json.dumps(P2)],
                          capture_output=True, text=True, env=_module_env())
    assert (proc.returncode, proc.stderr) == (0, "")


def test_closed_stdout_exits_141(tmp_path):
    # `simulate | head -1` on 40,001 rows: a write fails once the reader
    # has closed its end of the pipe
    cfg = write_config(tmp_path, {"params": P2, "initial_state": {"C": 1.0, "I": 1.0, "V": 1.0},
                                  "integration": {"t_end": 400.0, "dt": 0.01}})
    proc = subprocess.Popen(_module_argv(cfg, "simulate"), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_module_env())
    with proc.stderr:
        assert proc.stdout.readline() == b"t,C,I,V\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""


def test_closed_stdout_short_output_exits_141(tmp_path):
    # a few records stay in stdout's buffer until a flush, which must
    # fail inside main rather than at interpreter exit
    cfg = write_config(tmp_path, {"params": P1})
    env = _module_env()
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(_module_argv(cfg, "equilibria"), stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


# P2 with a, b12 and b22 changed: this grid holds all four cell classes
# (no inner, Stable with and without a definite form, Unstable) and a
# stable rectangle, so the sweep also writes its corner comment.
_SWEEP_BASE = dict(P2, a=44, b12=0.42, b22=69)
_SWEEP_AXES = {"alpha_values": [0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0],
               "k_values": [0.01, 0.1, 1.0, 10.0, 100.0, 1000.0]}
_START = {"C": 1.5, "I": 0.2, "V": 0.7}
_FIXED = {"t_end": 3.0, "dt": 0.125}
_ADAPTIVE = {"t_end": 20.0, "dt": 0.5, "mode": "adaptive", "rel_tol": 1e-8, "abs_tol": 1e-10}


@pytest.mark.parametrize(
    "payload, argv, digest",
    [
        ({"params": P2}, ["equilibria"],
         "293c9630c4fc382273777dd126485b7ae5e3545384f7201540ee7a69c30377f4"),
        ({"params": P2, "initial_state": _START, "integration": _FIXED}, ["simulate"],
         "e90f1ab5e13ddbc3f26f8546beb9e37afd55c6bc49b18411fd981e5c34ba6f9a"),
        ({"params": P2, "initial_state": _START, "integration": _ADAPTIVE}, ["simulate"],
         "50ea5ca00e31524727203f586d190c6c3c6759ccec4f7a91dc5667ee3ca9d1f6"),
        ({"params": P2}, ["stability"],
         "329fa72eb3e7675fc348885f7e176909b742af602fa6000468c86fbda84d6cc6"),
        ({"params": P2}, ["stability", "--variant", "as-written"],
         "0fac7aa422292d2d9cea0f61e3f4df7e0413a1d7da531de2827daf388385ad37"),
        ({"params": _SWEEP_BASE, "sweep": _SWEEP_AXES}, ["sweep"],
         "6da7acd865420473ec6b8461bac22171fff4d3d4d01fc4e4830a255ad0e35653"),
        ({"params": P2, "initial_state": _START, "integration": _FIXED,
          "lyapunov": {"A": 1.0, "B": 2.0, "D": 0.5}}, ["lyapunov"],
         "200fd1d565aeb41d015c87eac8c5117890233461229bbc50c8651370b31e244a"),
    ],
    ids=["equilibria", "simulate-fixed", "simulate-adaptive", "stability-corrected",
         "stability-as-written", "sweep", "lyapunov"],
)
def test_frozen_stdout(tmp_path, capsys, payload, argv, digest):
    # Every byte the CLI prints is part of its contract; a change to any
    # of these digests must be deliberate.
    cfg = write_config(tmp_path, payload)
    got_code, out, err = run_cli(["--config", cfg, *argv], capsys)
    assert (got_code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_main_repeats_in_one_process(tmp_path, capsys):
    # main builds its parser once per process and reuses it; every later
    # call must answer as the first call of its command did.
    retrodyn.cli._parser.cache_clear()
    sweep_cfg = write_config(tmp_path, {"params": _SWEEP_BASE, "sweep": _SWEEP_AXES}, "sweep.json")
    sim_cfg = write_config(tmp_path, {"params": P2, "initial_state": _START, "integration": _FIXED},
                           "simulate.json")

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    calls = [
        ["--config", sweep_cfg, "sweep"],
        ["--config", sweep_cfg, "frobnicate"],
        ["--config", sim_cfg, "simulate"],
        ["--config", sweep_cfg, "sweep"],
        ["--config", sim_cfg, "stability", "--variant", "as-written"],
        ["--config", sim_cfg, "stability"],
    ]
    first = {}
    for argv in calls:
        got = call(argv)
        assert got == first.setdefault(tuple(argv), got), argv
    assert first[tuple(calls[1])] == (2, "")
    assert first[tuple(calls[0])][0] == first[tuple(calls[2])][0] == 0
    assert first[tuple(calls[4])] != first[tuple(calls[5])]
    assert retrodyn.cli._parser.cache_info().misses == 1
