"""The benchmark's workloads: generated configs, requests and output checks.

A request drives the command line in process, as a user of the CLI
would, through ``retrodyn.cli.main`` with stdout and stderr captured in
memory.  Every output is checked against ``oracle`` (which does not use
the package); a check returns a list of problems, empty when the output
is right, and the facts the benchmark counts (units of work, the class
of each sweep cell).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import oracle

# Exit codes that are answers: 0 done, 1 "no such object" (no coexistence
# equilibrium, or not Stable).  2 (bad config) and 3 (numerical failure)
# are failures.
ANSWER_CODES = (0, 1)

# Trajectory rows re-stepped by the oracle per CSV (evenly spread).
RESTEP_ROWS = 8
# Sweep cells whose verdict the oracle recomputes per request.
SAMPLED_CELLS = 32

EPS = np.finfo(float).eps


def log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


# -- parameter families (the draws of tests/conftest.py, in the same order)


def sample_params(rng) -> dict:
    b11 = log_uniform(rng, 0.2, 3.0)
    b22 = log_uniform(rng, 0.2, 3.0)
    cross = 0.5 * min(b11, b22)
    return dict(
        a=log_uniform(rng, 0.3, 3.0),
        a_I=log_uniform(rng, 0.3, 3.0),
        b11=b11,
        b12=float(rng.uniform(0.0, cross)),
        b21=float(rng.uniform(0.0, cross)),
        b22=b22,
        alpha=float(rng.uniform(0.0, 1.0)),
        m=log_uniform(rng, 0.2, 2.0),
        k=log_uniform(rng, 0.3, 3.0),
        sigma=log_uniform(rng, 0.3, 3.0),
    )


def sample_params_mild(rng) -> dict:
    return dict(
        a=log_uniform(rng, 0.3, 3.0),
        a_I=log_uniform(rng, 0.5, 2.0),
        b11=log_uniform(rng, 0.3, 3.0),
        b12=float(rng.uniform(0.03, 0.3)),
        b21=float(rng.uniform(0.03, 0.3)),
        b22=log_uniform(rng, 0.3, 3.0),
        alpha=float(rng.uniform(0.0, 0.1)),
        m=log_uniform(rng, 0.3, 1.5),
        k=log_uniform(rng, 0.3, 1.5),
        sigma=log_uniform(rng, 0.5, 2.0),
    )


def positive_start(rng) -> dict:
    return {key: log_uniform(rng, 0.05, 5.0) for key in ("C", "I", "V")}


# -- running the CLI in process


def run_cli(path: str, *command: str) -> tuple:
    """Exit code and stdout of ``retrodyn --config path <command>``."""
    import retrodyn.cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = retrodyn.cli.main(["--config", path, *command])
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def digest(outputs: list) -> str:
    h = hashlib.sha256()
    for label, code, text in outputs:
        h.update(f"{label}\0{code}\0{text}\0".encode())
    return h.hexdigest()[:16]


# -- checks shared by several workloads


def _code_problems(outputs) -> list:
    return [f"{label}: exit {code}" for label, code, _ in outputs if code not in ANSWER_CODES]


def parse_csv(text: str, header: str, problems: list, label: str):
    """(rows split into fields, comment lines), or None after a problem."""
    lines = text.split("\n")
    if not text.endswith("\n") or lines[0] != header:
        problems.append(f"{label}: bad header or unterminated output")
        return None
    body = lines[1:-1]
    rows = [line.split(",") for line in body if not line.startswith("#")]
    return rows, [line for line in body if line.startswith("#")]


def check_trajectory(p, integration, s0, text, problems, label, weights=None):
    """Parse a simulate/lyapunov CSV and check it; returns the float rows."""
    traced = weights is not None
    header = "t,C,I,V,W,Wdot" if traced else "t,C,I,V"
    lines = text.split("\n")
    width = header.count(",") + 1
    if not text.endswith("\n") or lines[0] != header or len(lines) < 4:
        problems.append(f"{label}: bad header, unterminated output or no steps")
        return None
    body = lines[1:-1]
    if any(line.count(",") != width - 1 for line in body):
        problems.append(f"{label}: a row without {width} fields")
        return None
    try:
        rows = np.array(",".join(body).split(","), dtype=float).reshape(len(body), width)
    except ValueError:
        problems.append(f"{label}: non-numeric field")
        return None
    t, y = rows[:, 0], rows[:, 1:4]
    t_end = integration["t_end"]
    abs_tol = integration.get("abs_tol", 1e-9)
    steps = len(rows) - 1
    if t[0] != 0.0 or t[-1] != t_end or not np.all(np.diff(t) > 0.0):
        problems.append(f"{label}: times do not run from 0 to t_end")
    if tuple(y[0]) != (s0["C"], s0["I"], s0["V"]):
        problems.append(f"{label}: first row is not the initial state")
    if y.min() < -abs_tol:
        problems.append(f"{label}: population below -abs_tol ({y.min()!r})")
    fixed = integration.get("mode", "fixed") == "fixed"
    if fixed:
        dt = integration["dt"]
        gaps = np.diff(t)
        nominal = math.ceil(t_end / dt - 1e-9)
        halved = np.count_nonzero(gaps[:-1] < dt * (1.0 - 1e-9))
        if gaps.max() > dt * (1.0 + 1e-9):
            problems.append(f"{label}: step longer than dt")
        if halved == 0 and steps != nominal:
            problems.append(f"{label}: {steps} steps, expected {nominal}")
    # Re-step a few rows with the oracle's own RK4.
    picks = sorted({int(i) for i in np.linspace(0, steps - 1, RESTEP_ROWS)})
    for i in picks:
        h = t[i + 1] - t[i]
        start = tuple(float(v) for v in y[i])
        if fixed:
            want = oracle.rk4(p, start, h)
        else:
            want = oracle.rk4(p, oracle.rk4(p, start, 0.5 * h), 0.5 * h)
        for got, ref, base in zip(y[i + 1], want, start):
            if abs(got - ref) > 1e-9 * (abs(base) + abs(ref)) + 1e-13:
                problems.append(f"{label}: row {i + 1} is not an RK4 step from row {i}")
                break
    if traced:
        eq, exists = oracle.inner(p)
        w_col = rows[:, 4]
        # v(s) = s - ln s - 1 is >= 0; rounding near s = 1 may leave a few ulps below.
        floor = -8 * EPS * sum(weights)
        if w_col.min() < floor:
            problems.append(f"{label}: W below zero ({w_col.min()!r})")
        if exists is not True:
            problems.append(f"{label}: oracle finds no clear coexistence equilibrium")
        else:
            for i in picks + [steps]:
                w, wd, w_scale, wd_scale = oracle.w_and_wdot(p, weights, eq, tuple(y[i]))
                if abs(rows[i, 4] - w) > 1e-9 * w_scale + 1e-15 or abs(rows[i, 5] - wd) > 1e-9 * wd_scale + 1e-15:
                    problems.append(f"{label}: W or dW/dt wrong at row {i}")
                    break
    return rows


def check_equilibria(p, code, text, problems):
    """Records of the `equilibria` command; returns whether an inner one was listed."""
    try:
        records = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError:
        problems.append("equilibria: unparsable JSON line")
        return None
    kinds = [r.get("kind") for r in records]
    has_inner = kinds[:1] == ["inner"]
    expected = ["extinction", "uninfected_only"] + (["infected_only"] if p["a_I"] > p["m"] else [])
    if kinds[1 if has_inner else 0:] != expected:
        problems.append(f"equilibria: kinds {kinds}")
        return None
    if code != (0 if has_inner else 1):
        problems.append(f"equilibria: exit {code} with inner listed = {has_inner}")
    for r in records:
        point = (r["C"], r["I"], r["V"])
        if min(point) < 0.0 or oracle.relative_residual(p, *point) > 1e-9 or not r["residual"] >= 0.0:
            problems.append(f"equilibria: {r['kind']} is not an equilibrium")
    by_kind = {r["kind"]: (r["C"], r["I"], r["V"]) for r in records}
    if by_kind["extinction"] != (0.0, 0.0, 0.0) or by_kind["uninfected_only"] != (1.0 / p["b11"], 0.0, 0.0):
        problems.append("equilibria: wrong boundary equilibrium")
    _check_inner(p, by_kind.get("inner"), problems, "equilibria")
    return has_inner


def _check_inner(p, point, problems, label):
    ref, exists = oracle.inner(p)
    if exists is not None and exists != (point is not None):
        problems.append(f"{label}: inner equilibrium reported = {point is not None}, oracle = {exists}")
    elif point is not None and ref is not None:
        size = max(map(abs, ref))
        if any(abs(a - b) > 1e-8 * size for a, b in zip(point, ref)):
            problems.append(f"{label}: inner equilibrium differs from the oracle")


def check_stability(p, code, text, problems):
    """The `stability` report; returns whether an inner equilibrium was analysed."""
    if code == 1 and text == "":
        _check_inner(p, None, problems, "stability")
        return False
    try:
        report = json.loads(text)
        eq = report["equilibrium"]
        rh = report["routh_hurwitz"]
        c4 = report["condition4"]
        search = report["coefficient_search"]
        point = (eq["C"], eq["I"], eq["V"])
    except (json.JSONDecodeError, KeyError, TypeError):
        problems.append("stability: malformed report")
        return None
    _check_inner(p, point, problems, "stability")
    if oracle.relative_residual(p, *point) > 1e-9:
        problems.append("stability: reported point is not an equilibrium")
    if rh["margins"] != [rh["p"], rh["r"], rh["p"] * rh["q"] - rh["r"]]:
        problems.append("stability: margins do not match (p, r, pq - r)")
    expected = oracle.verdict(p, point)
    if expected is not None and rh["verdict"] != expected:
        problems.append(f"stability: verdict {rh['verdict']}, roots say {expected}")
    if code != (0 if rh["verdict"] == "Stable" else 1):
        problems.append(f"stability: exit {code} for verdict {rh['verdict']}")
    if c4["variant"] != "corrected" or c4["holds"] != (c4["lhs"] > c4["rhs"]):
        problems.append("stability: condition4 record inconsistent")
    if search["found"]:
        if search["D"] != 1.0 or not all(0.999e-3 <= search[w] <= 1.001e3 for w in ("A", "B")):
            problems.append("stability: weights outside the search grid")
        if not all(d > 0.0 for d in search["minors"]):
            problems.append("stability: a found form has a nonpositive minor")
        if expected == "Unstable":
            problems.append("stability: definite form at an unstable equilibrium")
    return True


# -- workloads


class Workload:
    name = ""
    cases = 0  # distinct configs generated per seed
    trace_prefix = 0  # traced requests whose counts are reported

    def generate(self, seed: int) -> list:
        """Case dicts, each with a JSON-ready ``config``; same seed, same cases."""
        raise NotImplementedError

    def prepare(self, case: dict):
        """Untimed per-case set-up after the package is importable."""

    def run(self, case: dict) -> list:
        """One request: a list of (label, exit code, stdout)."""
        raise NotImplementedError

    def check(self, case: dict, outputs: list) -> tuple:
        """(problems, facts) for one request's outputs."""
        raise NotImplementedError


class Trajectories(Workload):
    """simulate then lyapunov on a fixed-step 4,000-step RK4 run."""

    name = "trajectories"
    cases = 100
    trace_prefix = 16

    def generate(self, seed):
        rng = np.random.default_rng([seed, 1])
        out = []
        for _ in range(self.cases):
            while True:
                p = sample_params_mild(rng)
                if oracle.inner(p)[1] is True:
                    break
            config = {
                "params": p,
                "initial_state": positive_start(rng),
                "integration": {"t_end": 40.0, "dt": 0.01, "mode": "fixed"},
                "lyapunov": {"A": log_uniform(rng, 0.1, 10.0), "B": log_uniform(rng, 0.1, 10.0), "D": 1.0},
            }
            out.append({"config": config})
        return out

    def run(self, case):
        return [("simulate", *run_cli(case["path"], "simulate")),
                ("lyapunov", *run_cli(case["path"], "lyapunov"))]

    def check(self, case, outputs):
        problems = _code_problems(outputs)
        cfg = case["config"]
        p, integ, s0 = cfg["params"], cfg["integration"], cfg["initial_state"]
        weights = (cfg["lyapunov"]["A"], cfg["lyapunov"]["B"], cfg["lyapunov"]["D"])
        sim = check_trajectory(p, integ, s0, outputs[0][2], problems, "simulate")
        lya = check_trajectory(p, integ, s0, outputs[1][2], problems, "lyapunov", weights)
        steps = 0
        if sim is not None and lya is not None:
            if not np.array_equal(sim, lya[:, :4]):
                problems.append("lyapunov: trajectory differs from simulate")
            steps = len(sim) + len(lya) - 2
        return problems, {"work": steps}


MAP_ALPHAS = tuple(float(v) for v in np.logspace(np.log10(0.002), np.log10(10.0), 24))
MAP_KS = tuple(float(v) for v in np.logspace(np.log10(0.02), np.log10(100.0), 24))
MAP_BASE = dict(a=1.0, a_I=0.8, b11=0.3, b12=0.05, b21=0.05, b22=0.3, m=1.0, sigma=0.5)
MAP_JITTER = 0.3  # +- in natural log


class Maps(Workload):
    """sweep on a 24x24 (alpha, k) grid, then find_alpha_margin as in demo 04."""

    name = "maps"
    cases = 100
    trace_prefix = 16

    def generate(self, seed):
        rng = np.random.default_rng([seed, 2])
        out = []
        for _ in range(self.cases):
            p = {key: value * float(np.exp(rng.uniform(-MAP_JITTER, MAP_JITTER)))
                 for key, value in MAP_BASE.items()}
            p.update(alpha=1.0, k=1.0)  # replaced in every cell
            config = {"params": p, "sweep": {"alpha_values": list(MAP_ALPHAS), "k_values": list(MAP_KS)}}
            out.append({"config": config, "k_mid": MAP_KS[len(MAP_KS) // 2], "alpha_hi": MAP_ALPHAS[-1]})
        return out

    def prepare(self, case):
        from retrodyn.model import ModelParams

        case["base"] = ModelParams(**case["config"]["params"])

    def run(self, case):
        import retrodyn.sweep

        outputs = [("sweep", *run_cli(case["path"], "sweep"))]
        margin = retrodyn.sweep.find_alpha_margin(case["base"], k_fixed=case["k_mid"], alpha_hi=case["alpha_hi"])
        outputs.append(("alpha_margin", 0, repr(margin)))
        return outputs

    def check(self, case, outputs):
        problems = _code_problems(outputs)
        facts = {"work": 0}
        self._check_map(case, outputs[0][2], problems, facts)
        self._check_margin(case, outputs[1][2], problems)
        return problems, facts

    def _check_map(self, case, text, problems, facts):
        header = "alpha,k,inner_exists,rh_verdict,sylvester_pd,cond4_as_written,cond4_corrected"
        parsed = parse_csv(text, header, problems, "sweep")
        if parsed is None:
            return
        rows, comments = parsed
        n_a, n_k = len(MAP_ALPHAS), len(MAP_KS)
        if len(rows) != n_a * n_k or any(len(r) != 7 for r in rows):
            problems.append(f"sweep: {len(rows)} rows, expected {n_a * n_k}")
            return
        classes = {"no_inner": 0, "stable_definite": 0, "stable_indefinite": 0, "unstable": 0, "marginal": 0}
        stable = np.zeros((n_a, n_k), dtype=bool)
        for idx, r in enumerate(rows):
            i, j = divmod(idx, n_k)
            if (float(r[0]), float(r[1])) != (MAP_ALPHAS[i], MAP_KS[j]):
                problems.append(f"sweep: row {idx} has the wrong (alpha, k)")
                return
            if r[2] == "false" and r[3:] == ["", "", "", ""]:
                classes["no_inner"] += 1
            elif r[2] == "true" and r[3] in ("Stable", "Unstable", "Marginal") and all(
                    f in ("true", "false") for f in r[4:]):
                if r[3] == "Stable":
                    stable[i, j] = True
                    classes["stable_definite" if r[4] == "true" else "stable_indefinite"] += 1
                else:
                    classes[r[3].lower()] += 1
            else:
                problems.append(f"sweep: malformed row {idx}")
                return
        facts.update(work=len(rows), **classes)
        # The anchored rectangle in the trailing comment must be all Stable.
        if comments:
            try:
                fields = dict(part.split("=") for part in comments[0][2:].split(","))
                i0, j0 = MAP_ALPHAS.index(float(fields["alpha0"])), MAP_KS.index(float(fields["k0"]))
            except (ValueError, KeyError):
                problems.append("sweep: malformed rectangle comment")
                return
            if not stable[: i0 + 1, : j0 + 1].all():
                problems.append("sweep: rectangle holds a cell that is not Stable")
        elif stable[0, 0]:
            problems.append("sweep: corner cell is Stable but no rectangle reported")
        # Recheck a sample of cells against the oracle.
        rng = np.random.default_rng([case["index"], 3])
        base = case["config"]["params"]
        for idx in rng.choice(len(rows), size=SAMPLED_CELLS, replace=False):
            r = rows[idx]
            i, j = divmod(int(idx), n_k)
            p = dict(base, alpha=MAP_ALPHAS[i], k=MAP_KS[j])
            point, exists = oracle.inner(p)
            if exists is not None and exists != (r[2] == "true"):
                problems.append(f"sweep: cell {idx} inner_exists={r[2]}, oracle {exists}")
            elif exists:
                want = oracle.verdict(p, point)
                if want is not None and r[3] != want:
                    problems.append(f"sweep: cell {idx} verdict {r[3]}, roots say {want}")
                if want == "Unstable" and r[4] == "true":
                    problems.append(f"sweep: cell {idx} definite form at an unstable equilibrium")

    def _check_margin(self, case, text, problems):
        base, k, hi = case["config"]["params"], case["k_mid"], case["alpha_hi"]

        def stable_at(alpha):  # True, False, or None when undecided
            p = dict(base, alpha=alpha, k=k)
            point, exists = oracle.inner(p)
            if exists is None:
                return None
            if not exists:
                return False
            v = oracle.verdict(p, point)
            return None if v is None else v == "Stable"

        if text == "None":
            if stable_at(1e-6) is True:
                problems.append("alpha_margin: None, but alpha = 1e-6 is stable")
            return
        margin = float(text)
        if margin == hi:
            if stable_at(hi) is False:
                problems.append("alpha_margin: alpha_hi returned, but it is not stable")
        elif not 1e-6 <= margin < hi or stable_at(margin) is False or stable_at(margin + 1e-6 * hi) is True:
            problems.append(f"alpha_margin: {margin!r} is not where stability is lost")


class Screening(Workload):
    """equilibria, stability and an adaptive simulate on one parameter set."""

    name = "screening"
    cases = 1000
    trace_prefix = 200

    def generate(self, seed):
        rng = np.random.default_rng([seed, 4])
        out = []
        for _ in range(self.cases):
            config = {
                "params": sample_params(rng),
                "initial_state": positive_start(rng),
                "integration": {"t_end": 50.0, "mode": "adaptive", "rel_tol": 1e-9, "abs_tol": 1e-12},
            }
            out.append({"config": config})
        return out

    def run(self, case):
        return [(cmd, *run_cli(case["path"], cmd)) for cmd in ("equilibria", "stability", "simulate")]

    def check(self, case, outputs):
        problems = _code_problems(outputs)
        cfg = case["config"]
        p = cfg["params"]
        listed = check_equilibria(p, outputs[0][1], outputs[0][2], problems)
        analysed = check_stability(p, outputs[1][1], outputs[1][2], problems)
        if listed is not None and analysed is not None and listed != analysed:
            problems.append("equilibria and stability disagree on the inner equilibrium")
        if outputs[2][1] != 0:
            problems.append("simulate: nonzero exit")
        check_trajectory(p, cfg["integration"], cfg["initial_state"], outputs[2][2], problems, "simulate")
        return problems, {"work": 1, "inner": int(bool(listed))}


WORKLOADS = {w.name: w for w in (Trajectories(), Maps(), Screening())}
