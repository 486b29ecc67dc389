"""Benchmark of the retrodyn command line and library.

    python3 bench/run.py --workload trajectories|maps|screening \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark generates the
workload's configs from the seed, then sends requests in a closed loop
from this one process (one caller; each request starts after the
previous one returns) until the requests have been busy for ``--seconds``
seconds.  A request drives ``retrodyn.cli.main`` in process, the way
the CLI is used, with stdout captured in memory; every output is
checked (see ``workloads.py``), and on the default seed every request's
stdout must also match the digest recorded in ``reference_seed0.json``.

``--trace 0`` reports the end-to-end metrics: set-up time of a fresh
interpreter importing ``retrodyn.cli``, mean request latency, work per
second, peak RSS and the share of requests that succeed (the median and
p90 latency are printed too).  ``--trace 1``
spends half the time untraced and half with spans and counters wrapped
around the package's public functions (``tracing.py``), and reports the
per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it list each metric with its sample count, and the run record.

The whole run, set-up spawns included, is held to one CPU of the
process's affinity set.  The sweep's thread pool keeps its size
(``min(32, os.cpu_count() + 4)``), but its threads no longer pass the
GIL between cores: on a 2-vCPU VM (Xeon, Python 3.11) a threaded 24x24
map took about 80 ms on one CPU and 150-220 ms on two, and runs with
both CPUs fell between the two from one run to the next.  The traced
run still times the threaded map on every CPU of the set
(``sweep.map_all_cpus_ms``).

``BENCHMARK.json`` runs ``trajectories`` and ``maps``; ``screening`` is
run by hand.  The same VM's speed drifts by up to 1.8x over tens of
seconds, so a run needs about a minute to average it out, and three
workloads of a minute do not fit the time allowed for a full set of
runs.

``--record-reference`` runs every case of the default seed once and
rewrites that workload's digests in ``reference_seed0.json``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import WORKLOADS, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
REFERENCE = HERE / "reference_seed0.json"

DEFAULT_SEED = 0
# Measured fresh-interpreter imports, spread over the run, after one
# unmeasured import that writes the bytecode cache (as installing the
# package would).  Spread out, their median does not rest on the host's
# speed in one second of the run.
SETUP_SPAWNS = 7
WARMUP_REQUESTS = 2
WALL_CAP_S = 140.0  # stop sending requests after this, whatever --seconds says

END_TO_END = {  # name: unit
    "setup_s": "s",
    "req_mean_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

# Printed and kept in the run record, but not in the result line.  On a
# 2-vCPU VM whose speed swings by up to 1.7x with its neighbours' load,
# request latencies fall into a fast and a slow mode; a percentile jumps
# between the modes as their mix changes from run to run (ten-run spreads,
# quartile distance over median, of 0.29 for p50 on `trajectories` and
# 0.35 for p90 on `maps`), where the mean moves smoothly.  fail_ratio is 0
# on a correct run, so success_ratio stands for it.
UNGATED = {"req_p50_ms": "ms", "req_p90_ms": "ms", "fail_ratio": "ratio"}

# Per-request medians of span self CPU time; sweep.map_ms is the wall time
# of the whole map and sweep.cell_busy_ms the CPU time of all its cells.
LAYER_TIMES = {
    "cli.load_config_ms": "cli.load_config",
    "cli.self_ms": "cli.main",
    "integrator.integrate_ms": "integrator.integrate",
    "integrator.lyapunov_sample_ms": "integrator.lyapunov_trace",
    "integrator.write_csv_ms": "integrator.Trajectory.write_csv",
    "equilibria.inner_ms": "equilibria.inner_equilibrium",
    "stability.classify_ms": "stability.classify_equilibrium",
    "lyapunov.search_coeffs_ms": "lyapunov.search_coeffs",
    "lyapunov.condition4_ms": "lyapunov.condition4",
    "sweep.map_ms": "sweep.stability_map",
    "sweep.cell_busy_ms": "sweep.evaluate_cell",
    "sweep.write_csv_ms": "sweep.SweepResult.write_csv",
    "sweep.alpha_margin_ms": "sweep.find_alpha_margin",
}

# Per-request means over the first ``trace_prefix`` traced requests.
LAYER_COUNTS = {
    "model.rhs_calls": lambda t: t.counts["model._rhs"],
    "model.jacobian_calls": lambda t: t.counts["model.jacobian"],
    "integrator.steps": lambda t: t.steps_accepted,
    "integrator.csv_bytes": lambda t: t.csv_bytes,
    "lyapunov.w_calls": lambda t: t.counts["lyapunov.w_value"] + t.counts["lyapunov.w_dot"],
    "lyapunov.search_calls": lambda t: t.calls["lyapunov.search_coeffs"],
    "equilibria.inner_calls": lambda t: t.calls["equilibria.inner_equilibrium"],
    "stability.classify_calls": lambda t: t.calls["stability.classify_equilibrium"],
    "sweep.cells": lambda t: t.calls["sweep.evaluate_cell"],
    "sweep.alpha_margin_probes": lambda t: t.margin_probes,
}

SWEEP_SHARES = ("no_inner", "stable_definite", "stable_indefinite", "unstable")

PER_LAYER = {
    **{name: "ms" for name in LAYER_TIMES},
    "sweep.map_serial_ms": "ms",
    "sweep.map_all_cpus_ms": "ms",
    **{name: "count" for name in LAYER_COUNTS},
    "integrator.csv_bytes": "bytes",
    "integrator.accept_ratio": "ratio",
    "equilibria.inner_found_ratio": "ratio",
    "lyapunov.search_found_ratio": "ratio",
    **{f"sweep.share_{c}": "ratio" for c in SWEEP_SHARES},
    "tracing.overhead_ratio": "ratio",
}


class Record:
    """One request: latency, problems found in its output, counted facts."""

    def __init__(self, index, latency, problems, facts, stdout_digest):
        self.index = index
        self.latency = latency
        self.problems = problems
        self.facts = facts
        self.digest = stdout_digest
        self.trace = None


def request(workload, case, reference, checked=None) -> Record:
    """Send one request and check its output.  ``checked`` maps (case,
    stdout digest) to the check's result, so an output seen before, byte
    for byte, is not checked again."""
    t0 = perf_counter()
    try:
        outputs = workload.run(case)
    except Exception as exc:  # a crash in the program is a failed request
        return Record(case["index"], perf_counter() - t0, [f"raised {exc!r}"], {"work": 0}, None)
    latency = perf_counter() - t0
    stdout_digest = digest(outputs)
    key = (case["index"], stdout_digest)
    if checked is not None and key in checked:
        problems, facts = checked[key]
        problems = list(problems)
    else:
        try:
            problems, facts = workload.check(case, outputs)
        except Exception as exc:  # output too malformed for the checks
            problems, facts = [f"check raised {exc!r}"], {"work": 0}
        if checked is not None:
            checked[key] = (list(problems), facts)
    if reference is not None and reference[case["index"]] != stdout_digest:
        problems.append("stdout differs from the recorded reference")
    return Record(case["index"], latency, problems, facts, stdout_digest)


def run_phase(workload, cases, reference, busy_s, min_requests, deadline, tracer=None, checked=None,
              pause=None, pauses=0) -> list:
    """Closed loop over the cases from index 0 until the requests were busy
    for ``busy_s`` seconds and at least ``min_requests`` were sent.
    ``pause``, if given, is called between requests ``pauses`` times,
    spread evenly over the busy time."""
    records, busy, paused = [], 0.0, 0
    while (busy < busy_s or len(records) < min_requests) and time.monotonic() < deadline:
        case = cases[len(records) % len(cases)]
        if tracer is not None:
            tracer.begin()
        record = request(workload, case, reference, checked)
        if tracer is not None:
            record.trace = tracer.end()
        records.append(record)
        busy += record.latency
        if paused < pauses and busy >= busy_s * (paused + 1) / pauses:
            pause()
            paused += 1
    return records


def import_time() -> float:
    """Wall time of a fresh interpreter running ``import retrodyn.cli``."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import retrodyn.cli"], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
    return perf_counter() - t0


def write_cases(workload, seed, workdir) -> list:
    cases = workload.generate(seed)
    for index, case in enumerate(cases):
        case["index"] = index
        case["path"] = os.path.join(workdir, f"case-{index:04d}.json")
        with open(case["path"], "w") as fh:
            json.dump(case["config"], fh)
        workload.prepare(case)
    return cases


def load_reference(workload, seed):
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return None
    digests = json.loads(REFERENCE.read_text()).get(workload.name)
    return digests if digests is not None and len(digests) == workload.cases else None


def record_reference(workload, cases) -> int:
    records = [request(workload, case, None) for case in cases]
    bad = [r for r in records if r.problems]
    if bad:
        print(f"error: case {bad[0].index}: {bad[0].problems[:3]}", file=sys.stderr)
        return 1
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    table[workload.name] = [r.digest for r in records]
    REFERENCE.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(records)} digests for {workload.name}")
    return 0


def end_to_end_metrics(records, setup_times, attempted, failed) -> tuple:
    latencies = [r.latency for r in records]
    work = sum(r.facts.get("work", 0) for r in records)
    values = {
        "setup_s": statistics.median(setup_times),
        "req_mean_ms": statistics.fmean(latencies) * 1e3,
        "req_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "req_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
        "work_per_s": work / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": 1.0 - failed / attempted,
        "fail_ratio": failed / attempted,
    }
    samples = {"setup_s": len(setup_times), "req_mean_ms": len(records), "req_p50_ms": len(records),
               "req_p90_ms": len(records), "work_per_s": len(records), "peak_rss_mb": 1,
               "success_ratio": attempted, "fail_ratio": attempted}
    return values, samples


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(workload, untraced, traced, serial_times, all_cpu_times) -> tuple:
    prefix = traced[: workload.trace_prefix]
    traces = [r.trace for r in prefix]
    values = {}
    for name, key in LAYER_TIMES.items():
        field = {"sweep.map_ms": "incl_wall", "sweep.cell_busy_ms": "incl_cpu"}.get(name, "self_cpu")
        values[name] = statistics.median(getattr(r.trace, field)[key] for r in traced) * 1e3
    values["sweep.map_serial_ms"] = statistics.median(serial_times) * 1e3 if serial_times else 0.0
    values["sweep.map_all_cpus_ms"] = statistics.median(all_cpu_times) * 1e3 if all_cpu_times else 0.0
    for name, count in LAYER_COUNTS.items():
        values[name] = sum(map(count, traces)) / len(traces)
    values["integrator.accept_ratio"] = _ratio(sum(t.steps_accepted for t in traces),
                                               sum(t.steps_attempted for t in traces))
    for name, key in (("equilibria.inner_found_ratio", "equilibria.inner_equilibrium"),
                      ("lyapunov.search_found_ratio", "lyapunov.search_coeffs")):
        values[name] = _ratio(sum(t.found[key] for t in traces), sum(t.calls[key] for t in traces))
    cells = sum(r.facts.get("work", 0) for r in prefix) if workload.name == "maps" else 0
    for c in SWEEP_SHARES:
        values[f"sweep.share_{c}"] = _ratio(sum(r.facts.get(c, 0) for r in prefix), cells)
    values["tracing.overhead_ratio"] = (statistics.median(r.latency for r in traced)
                                        / statistics.median(r.latency for r in untraced))
    samples = {name: len(traced) for name in LAYER_TIMES}
    samples.update({name: len(prefix) for name in PER_LAYER if name not in LAYER_TIMES})
    samples["sweep.map_serial_ms"] = len(serial_times)
    samples["sweep.map_all_cpus_ms"] = len(all_cpu_times)
    samples["tracing.overhead_ratio"] = len(traced) + len(untraced)
    return values, samples


def serial_maps(cases, tracer, all_cpus) -> tuple:
    """``stability_map(grid, max_workers=1)`` on the traced prefix's grids,
    then the threaded map with every CPU of ``all_cpus`` allowed, both
    with tracing on like the threaded maps they are compared with; the
    serial CSV must equal the threaded one byte for byte."""
    import retrodyn.cli
    import retrodyn.sweep

    serial, all_cpu, problems = [], [], []
    for case in cases:
        grid = retrodyn.cli.load_config(case["path"]).sweep
        tracer.begin()
        t0 = perf_counter()
        result = retrodyn.sweep.stability_map(grid, max_workers=1)
        serial.append(perf_counter() - t0)
        tracer.end()
        pinned = os.sched_getaffinity(0) if all_cpus else None
        if all_cpus:
            os.sched_setaffinity(0, all_cpus)
        try:
            tracer.begin()
            t0 = perf_counter()
            threaded = retrodyn.sweep.stability_map(grid)
            all_cpu.append(perf_counter() - t0)
            tracer.end()
        finally:
            if pinned:
                os.sched_setaffinity(0, pinned)
        serial_csv, threaded_csv = io.StringIO(), io.StringIO()
        result.write_csv(serial_csv)
        threaded.write_csv(threaded_csv)
        if serial_csv.getvalue() != threaded_csv.getvalue():
            problems.append(f"case {case['index']}: serial map differs from the threaded map")
    return serial, all_cpu, problems


def pin_to_one_cpu():
    """Hold this process, and the threads and processes it starts, to
    the highest-numbered CPU it may run on; return the set it had before."""
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(allowed)})
    except (AttributeError, OSError):  # no affinity control here
        return None
    return allowed


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args, samples, ungated, digests, reference) -> dict:
    covered = sorted(digests)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "sweep_pool_threads": min(32, (os.cpu_count() or 1) + 4),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": git_commit(),
        "samples": samples,
        "ungated": ungated,
        "stdout_digest": digest([(str(i), 0, digests[i]) for i in covered]),
        "cases_covered": len(covered),
        "reference": "none for this seed" if reference is None else "checked per request",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "retrodyn" / "cli.py").is_file():
        print(f"error: no retrodyn sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    all_cpus = pin_to_one_cpu()
    try:
        return measure(args, all_cpus)
    finally:
        if all_cpus:
            os.sched_setaffinity(0, all_cpus)


def measure(args, all_cpus) -> int:
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + WALL_CAP_S
    setup_times = []
    try:
        if args.trace == 0 and not args.record_reference:
            import_time()
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"error: importing retrodyn.cli failed: {exc}", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        cases = write_cases(workload, args.seed, workdir)
        if args.record_reference:
            return record_reference(workload, cases)
        reference = load_reference(workload, args.seed)
        checked = {}
        warmup = [request(workload, cases[-1 - i], reference, checked) for i in range(WARMUP_REQUESTS)]
        extra_problems = []
        if args.trace == 0:
            records = run_phase(workload, cases, reference, args.seconds, 1, deadline, checked=checked,
                                pause=lambda: setup_times.append(import_time()), pauses=SETUP_SPAWNS)
            while len(setup_times) < SETUP_SPAWNS:  # cut by the wall-time cap, or very short
                setup_times.append(import_time())
            everything = warmup + records
        else:
            from tracing import Tracer

            untraced = run_phase(workload, cases, reference, args.seconds / 2, 1, deadline, checked=checked)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_phase(workload, cases, reference, args.seconds / 2,
                                   workload.trace_prefix, deadline, tracer, checked)
                serial_times, all_cpu_times = [], []
                if workload.name == "maps":
                    serial_times, all_cpu_times, extra_problems = serial_maps(
                        cases[: workload.trace_prefix], tracer, all_cpus)
            finally:
                tracer.uninstall()
            everything = warmup + untraced + traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = len(everything)
    bad = [r for r in everything if r.problems]
    failed = len(bad) + len(extra_problems)
    if args.trace == 0:
        values, samples = end_to_end_metrics(records, setup_times, attempted, failed)
        units, printed = END_TO_END, {**END_TO_END, **UNGATED}
    else:
        values, samples = layer_metrics(workload, untraced, traced, serial_times, all_cpu_times)
        units = printed = PER_LAYER
    for r in bad[:5]:
        print(f"failed: case {r.index}: {'; '.join(r.problems[:3])}", file=sys.stderr)
    for problem in extra_problems[:5]:
        print(f"failed: {problem}", file=sys.stderr)
    for name, unit in printed.items():
        print(f"{name:32s} {values[name]:>16.6g} {unit:6s} n={samples[name]}")
    digests = {r.index: r.digest for r in reversed(everything) if r.digest is not None}
    ungated = {name: values[name] for name in printed if name not in units}
    print(json.dumps({"run_record": run_record(args, samples, ungated, digests, reference)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
