"""Compare this checkout's retrodyn with another tree's, output by output.

    python tools/diffcheck.py --against <rev or DIR> [--src DIR]

``--against`` takes a directory as the ``src`` directory of the other
tree; anything else is a git revision, whose ``src`` is extracted with
``git archive`` into a temporary directory.  Each tree then runs in a
worker process of its own, so the two packages never share an
interpreter.  Both workers run:

- the five CLI commands on one config set: the README config; P2 (the
  README's parameters) and PU (an unstable exemplar) in a time unit
  1/s as long, for s in 1e-5, 1e20, 1e50, 1e101 and 1e103 (the rates a,
  a_I, m, sigma and alpha times s, t_end, dt and the sweep's alphas
  scaled to match; P2 steps in fixed mode, PU in adaptive mode); and P1
  with an overflowed inner point (V^ = inf).  Each run's stdout, stderr
  and exit code are compared;
- ``inner_equilibrium``, ``classify_equilibrium``, ``condition4`` (both
  variants), ``search_coeffs``, ``evaluate_cell`` and
  ``find_alpha_margin`` on 2,000 seeded parameter draws, every second one
  rescaled to a time unit and a population unit 2**e away (|e| <= 40);
  ``classify_equilibrium`` runs at each of ``all_equilibria``, the
  boundary states as well as the inner one.  ``condition4`` and
  ``search_coeffs`` get the inner equilibrium after the parameters only
  in a tree whose function still takes it as ``eq``: before that
  argument was dropped, each one took it.
  Results are compared with every float by ``float.hex``, which writes
  any NaN as ``nan``, so two NaNs count as equal;
- ``stability_map(...).write_csv`` on 100 seeded 24x24 maps shaped like
  the benchmark's ``maps`` family: log axes alpha 0.002-10 and k
  0.02-100 built with ``math`` (so their bits do not depend on numpy's
  SIMD dispatch), the benchmark's base jittered by +-0.3 in log, and
  every second map in a time unit and a population unit 2**e away
  (|e| <= 40).  The CSV bytes are compared (by sha256);
- CLI ``simulate`` and ``lyapunov`` on 100 seeded trace configs, drawn
  with ``random`` alone (so their bits do not depend on numpy's SIMD
  dispatch): half the draws' parameter ranges and half PU jittered by
  +-0.3 in log, whose orbits pass close to 0; Volterra weights in
  [1e-2, 1e2]; starts in [1e-3, 10] per population; every second run
  adaptive; and ``abs_tol`` 1e-9 or 1e-3, which lets a population dip
  below 0 so that the trace leaves the open octant.  One run in five
  starts with C = 5e-324, in a population unit 1/8 as large (so C^ is 8
  times larger), and the ratio C/C^ underflows to 0 where C^ >= 2.
  Stdout, stderr and the exit code are compared.

The last line printed is the summary: mismatches per command (out of
the configs), per function (out of the draws), in the maps (out of
the maps) and per traced command (out of the trace configs), each with
the count among the unscaled ones (the README config and the overflowed
one, the even draws, the even maps, the trace configs in their drawn
units), so a change
that only removes a dependence on the units shows "0 unscaled"
throughout.  Each mismatch is also named on stderr.  The exit code is 0
when nothing differs and 1 otherwise.  ``--src`` takes the ``src``
directory of another tree in place of this checkout's working tree.
"""

from __future__ import annotations

import argparse
import contextlib
import enum
import hashlib
import inspect
import io
import json
import math
import random
import re
import subprocess
import sys
import tarfile
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("equilibria", "simulate", "stability", "sweep", "lyapunov")
FUNCTIONS = (
    "inner_equilibrium", "classify_equilibrium", "condition4",
    "search_coeffs", "evaluate_cell", "find_alpha_margin",
)
RATES = ("a", "a_I", "m", "sigma", "alpha")
# Per unit of population, so alpha (per cell and per virion) is in both.
PER_POPULATION = ("b11", "b12", "b21", "b22", "alpha")
RATE_SCALES = (1e-5, 1e20, 1e50, 1e101, 1e103)
DRAWS = 2000
MAPS = 100
TRACES = 100
TRACED = ("simulate", "lyapunov")
# bench/workloads.py's maps base; alpha and k are replaced in every cell.
MAP_BASE = {"a": 1.0, "a_I": 0.8, "b11": 0.3, "b12": 0.05, "b21": 0.05, "b22": 0.3, "m": 1.0, "sigma": 0.5}
P1 = {"a": 1, "a_I": 2, "b11": 1, "b12": 0, "b21": 0, "b22": 1, "alpha": 0, "m": 1, "k": 1, "sigma": 2}
PU = {"a": 1, "a_I": 0.5, "b11": 0.1, "b12": 0.01, "b21": 0.01, "b22": 0.1,
      "alpha": 2, "m": 2, "k": 30, "sigma": 0.2}
# the configs in the units they were written in; the rest are rescaled
UNSCALED_CONFIGS = ("readme", "overflowed-inner")


def configs() -> dict:
    """The config set, by label; every config has every section."""
    readme = (ROOT / "README.md").read_text()
    (text,) = re.findall(r"^```json\n(.*?)^```$", readme, re.M | re.S)
    base = json.loads(text)
    out = {"readme": base}
    for name, params, mode in (("P2", base["params"], "fixed"), ("PU", PU, "adaptive")):
        for s in RATE_SCALES:
            integration = base["integration"]
            out[f"{name}x{s:g}"] = dict(
                base,
                params={key: value * s if key in RATES else value for key, value in params.items()},
                integration=dict(integration, t_end=integration["t_end"] / s, dt=integration["dt"] / s, mode=mode),
                sweep=dict(base["sweep"], alpha_values=[alpha * s for alpha in base["sweep"]["alpha_values"]]),
            )
    out["overflowed-inner"] = dict(base, params=dict(P1, k=1e300, sigma=1e-10))
    return out


def canon(x):
    """x as JSON: floats by float.hex, enums by name, the package's
    records field by field in ``vars()`` order."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, enum.Enum):
        return f"{type(x).__name__}.{x.name}"
    if type(x).__module__.startswith("retrodyn."):
        return {"type": type(x).__name__, **{name: canon(value) for name, value in vars(x).items()}}
    if isinstance(x, (tuple, list)):
        return [canon(v) for v in x]
    return repr(x)


def _call(func, *args):
    try:
        return canon(func(*args))
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"


def _run_command(main, path: str, command: str) -> list:
    # catch_warnings resets the once-per-location registry, so a warning
    # shows on every run as in a fresh process.
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["--config", path, command])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    return [hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue(), code]


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _params(rng) -> dict:
    """One parameter draw in sample_params' ranges."""
    b11, b22 = _log_uniform(rng, 0.2, 3.0), _log_uniform(rng, 0.2, 3.0)
    cross = 0.5 * min(b11, b22)
    return {
        "a": _log_uniform(rng, 0.3, 3.0), "a_I": _log_uniform(rng, 0.3, 3.0),
        "b11": b11, "b12": rng.uniform(0.0, cross), "b21": rng.uniform(0.0, cross), "b22": b22,
        "alpha": rng.uniform(0.0, 1.0), "m": _log_uniform(rng, 0.2, 2.0),
        "k": _log_uniform(rng, 0.3, 3.0), "sigma": _log_uniform(rng, 0.3, 3.0),
    }


def _draws():
    """(params, alpha, k, alpha_hi) per draw: sample_params' ranges, with
    every second draw in a time unit and a population unit 2**e away."""
    rng = random.Random(0)
    for index in range(DRAWS):
        p = _params(rng)
        alpha, k, alpha_hi = _log_uniform(rng, 1e-3, 1e2), _log_uniform(rng, 1e-2, 1e3), 10.0
        if index % 2:
            for names in (RATES, PER_POPULATION):
                e = rng.randint(-40, 40)
                p.update({name: math.ldexp(p[name], e) for name in names})
                alpha, alpha_hi = math.ldexp(alpha, e), math.ldexp(alpha_hi, e)
        yield p, alpha, k, alpha_hi


def _eq_arg(func, eq) -> tuple:
    """(eq,) when ``func`` still takes the inner equilibrium as ``eq``, else ()."""
    return (eq,) if "eq" in inspect.signature(func).parameters else ()


def _function_outputs(retrodyn) -> dict:
    out = {name: [] for name in FUNCTIONS}
    for fields, alpha, k, alpha_hi in _draws():
        p = retrodyn.ModelParams(**fields)
        eq = retrodyn.inner_equilibrium(p)
        out["inner_equilibrium"].append(canon(eq))
        out["classify_equilibrium"].append([
            _call(retrodyn.classify_equilibrium, p, each) for each in retrodyn.all_equilibria(p)
        ])
        if eq is None:
            for name in ("condition4", "search_coeffs"):
                out[name].append("no inner equilibrium")
        else:
            out["condition4"].append([
                _call(retrodyn.condition4, p, *_eq_arg(retrodyn.condition4, eq), variant)
                for variant in retrodyn.Condition4Variant
            ])
            out["search_coeffs"].append(_call(retrodyn.search_coeffs, p, *_eq_arg(retrodyn.search_coeffs, eq)))
        out["evaluate_cell"].append(_call(retrodyn.sweep.evaluate_cell, p, alpha, k))
        out["find_alpha_margin"].append(_call(retrodyn.sweep.find_alpha_margin, p, k, alpha_hi))
    return out


def _log_axis(lo: float, hi: float, n: int) -> list:
    step = (math.log(hi) - math.log(lo)) / (n - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(n)]


def _maps():
    """(params, alpha_values, k_values) per map, as the module docstring says."""
    rng = random.Random(1)
    alphas, ks = _log_axis(0.002, 10.0, 24), _log_axis(0.02, 100.0, 24)
    for index in range(MAPS):
        p = {name: value * math.exp(rng.uniform(-0.3, 0.3)) for name, value in MAP_BASE.items()}
        p.update(alpha=1.0, k=1.0)
        map_alphas = alphas
        if index % 2:
            for names in (RATES, PER_POPULATION):
                e = rng.randint(-40, 40)
                p.update({name: math.ldexp(p[name], e) for name in names})
                map_alphas = [math.ldexp(alpha, e) for alpha in map_alphas]
        yield p, map_alphas, ks


def _map_outputs(retrodyn) -> dict:
    out = []
    for fields, alphas, ks in _maps():
        buf = io.StringIO()
        retrodyn.stability_map(retrodyn.SweepGrid(retrodyn.ModelParams(**fields), alphas, ks)).write_csv(buf)
        out.append(hashlib.sha256(buf.getvalue().encode()).hexdigest())
    return {"stability_map": out}


def trace_configs() -> list:
    """The trace configs, as the module docstring says."""
    rng = random.Random(2)
    out = []
    for index in range(TRACES):
        if index % 4 < 2:
            params = _params(rng)
        else:
            params = {name: value * math.exp(rng.uniform(-0.3, 0.3)) for name, value in PU.items()}
        start = [_log_uniform(rng, 1e-3, 10.0) for _ in range(3)]
        if index % 5 == 4:
            start[0] = 5e-324
            params.update({name: params[name] / 8 for name in PER_POPULATION})
        t_end = _log_uniform(rng, 1.0, 50.0)
        integration = {"t_end": t_end, "dt": t_end / rng.randint(20, 2000),
                       "mode": "adaptive" if index % 2 else "fixed",
                       "abs_tol": rng.choice((1e-9, 1e-3))}
        out.append({
            "params": params,
            "initial_state": dict(zip("CIV", start)),
            "integration": integration,
            "lyapunov": {name: _log_uniform(rng, 1e-2, 1e2) for name in "ABD"},
        })
    return out


def worker(src: str, paths: dict) -> None:
    """Print the outputs of the package in ``src`` as one JSON object;
    ``paths`` holds the config files of the commands and the traces."""
    sys.path.insert(0, src)
    import retrodyn
    import retrodyn.cli
    import retrodyn.sweep

    if Path(src).resolve() not in Path(retrodyn.__file__).resolve().parents:
        sys.exit(f"imported retrodyn from {retrodyn.__file__}, not from {src}")
    def runs(names, section):
        return {name: [_run_command(retrodyn.cli.main, path, name) for path in paths[section]] for name in names}

    json.dump({"commands": runs(COMMANDS, "commands"), "functions": _function_outputs(retrodyn),
               "maps": _map_outputs(retrodyn), "traces": runs(TRACED, "traces")}, sys.stdout)


def extract(rev: str, dest: Path) -> Path:
    """``rev``'s src directory, extracted under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter exists from Python 3.10.12 and 3.11.4 on
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git revision, or src directory, to compare with")
    parser.add_argument("--src", default=str(ROOT / "src"), help="src directory of the changed tree")
    args = parser.parse_args(argv)

    cases = configs()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"commands": [], "traces": []}
        for section, named in (("commands", cases.items()), ("traces", enumerate(trace_configs()))):
            for label, config in named:
                path = Path(tmp, f"{section}-{label}.json")
                path.write_text(json.dumps(config))
                paths[section].append(str(path))
        # the workers run in tmp, so a directory given relative to here is resolved
        against = Path(args.against)
        against = against.resolve() if against.is_dir() else extract(args.against, Path(tmp, "against"))
        srcs = (str(against), str(Path(args.src).resolve()))
        runs = [
            subprocess.Popen([sys.executable, __file__, "--worker", src, json.dumps(paths)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=tmp)
            for src in srcs
        ]
        results = []
        for src, run in zip(srcs, runs):
            stdout, stderr = run.communicate()
            if run.returncode != 0:
                sys.exit(f"worker on {src} failed:\n{stderr}")
            results.append(json.loads(stdout))
    old, new = results

    labels = {"commands": list(cases), "functions": range(DRAWS), "maps": range(MAPS), "traces": range(TRACES)}
    unscaled = {"commands": set(UNSCALED_CONFIGS), "functions": range(0, DRAWS, 2), "maps": range(0, MAPS, 2),
                "traces": [index for index in range(TRACES) if index % 5 != 4]}
    parts = []
    total = total_unscaled = 0
    sections = (("commands", COMMANDS), ("functions", FUNCTIONS), ("maps", ("stability_map",)), ("traces", TRACED))
    for section, names in sections:
        counts = []
        for name in names:
            pairs = list(zip(labels[section], old[section][name], new[section][name]))
            bad = [label for label, a, b in pairs if a != b]
            for label in bad:
                print(f"mismatch: {name} on {section[:-1]} {label}", file=sys.stderr)
            bad_unscaled = sum(label in unscaled[section] for label in bad)
            total += len(bad)
            total_unscaled += bad_unscaled
            counts.append(f"{name} {len(bad)}/{len(pairs)} ({bad_unscaled} unscaled)")
        parts.append(f"{section}: " + ", ".join(counts))
    print(f"diffcheck {args.against} -> {args.src}: " + "; ".join(parts)
          + f"; {total} mismatches ({total_unscaled} unscaled)")
    return 0 if total == 0 else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2], json.loads(sys.argv[3]))
    else:
        sys.exit(main())
