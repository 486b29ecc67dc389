"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench
"""

import json
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few cases and one set-up spawn."""
    for workload in WORKLOADS.values():
        monkeypatch.setattr(workload, "cases", 3)
        monkeypatch.setattr(workload, "trace_prefix", 2)
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)


def run_main(capsys, workload, trace, seed=5):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), json.loads(lines[-2])["run_record"]


def prepared(workload, seed=5, tmp_path=None):
    cases = workload.generate(seed)
    for index, case in enumerate(cases):
        case["index"] = index
        case["path"] = str(tmp_path / f"case-{index}.json")
        Path(case["path"]).write_text(json.dumps(case["config"]))
        workload.prepare(case)
    return cases


def test_benchmark_json_matches_the_metrics():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == [name for name in WORKLOADS if name in names]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_runs_end_to_end(tiny, capsys, name, trace):
    code, result, record = run_main(capsys, name, trace)
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["workload"] == name and record["seed"] == 5


def test_traced_counts_repeat_exactly(tiny, capsys):
    _, first, _ = run_main(capsys, "maps", 1)
    _, second, _ = run_main(capsys, "maps", 1)
    exact = [name for name, unit in run.PER_LAYER.items() if unit != "ms" and name != "tracing.overhead_ratio"]
    assert {n: first["metrics"][n] for n in exact} == {n: second["metrics"][n] for n in exact}
    assert first["metrics"]["sweep.cells"]["value"] == 576


def test_tracer_restores_the_package(tiny, capsys):
    import retrodyn.cli
    import retrodyn.integrator
    import retrodyn.model

    before = (retrodyn.cli.main, retrodyn.integrator._rhs, retrodyn.integrator.Trajectory.write_csv)
    run_main(capsys, "trajectories", 1)
    after = (retrodyn.cli.main, retrodyn.integrator._rhs, retrodyn.integrator.Trajectory.write_csv)
    assert after == before and retrodyn.model._rhs is retrodyn.integrator._rhs


def _tamper_trajectory(outputs):
    label, code, text = outputs[0]
    lines = text.split("\n")
    fields = lines[2].split(",")
    fields[1] = repr(float(fields[1]) * (1 + 1e-6))
    lines[2] = ",".join(fields)
    outputs[0] = (label, code, "\n".join(lines))


def _tamper_map(outputs):
    label, code, text = outputs[0]
    lines = text.split("\n")
    outputs[0] = (label, code, "\n".join(lines[:-3] + lines[-2:]))


def _tamper_verdict(outputs):
    label, code, text = outputs[1]
    outputs[1] = (label, code, text.replace('"verdict": "Stable"', '"verdict": "Unstable"'))


@pytest.mark.parametrize("name, tamper", [
    ("trajectories", _tamper_trajectory),
    ("maps", _tamper_map),
    ("screening", _tamper_verdict),
])
def test_a_tampered_output_is_a_failure(tmp_path, name, tamper):
    workload = WORKLOADS[name]
    cases = prepared(workload, tmp_path=tmp_path)[:20]
    for case in cases:
        outputs = workload.run(case)
        assert workload.check(case, outputs)[0] == []
        if name != "screening" or outputs[1][1] == 0:  # a Stable verdict to flip
            break
    tamper(outputs)
    assert workload.check(case, outputs)[0]


def test_a_changed_stdout_misses_the_reference(tmp_path):
    workload = WORKLOADS["screening"]
    case = prepared(workload, tmp_path=tmp_path)[0]
    good = run.request(workload, case, None)
    reference = {case["index"]: good.digest}
    assert run.request(workload, case, reference).problems == []
    reference[case["index"]] = "0" * 16
    assert run.request(workload, case, reference).problems == ["stdout differs from the recorded reference"]


def test_exit_3_counts_as_a_failure(tiny, capsys, monkeypatch):
    workload = WORKLOADS["screening"]
    generate = workload.generate

    def with_step_budget_of_one(seed):
        cases = generate(seed)
        cases[0]["config"]["integration"]["max_steps"] = 1  # simulate exits 3
        return cases

    monkeypatch.setattr(workload, "generate", with_step_budget_of_one)
    code, result, _ = run_main(capsys, "screening", 0)
    assert code == 0 and not result["correct"] and result["failed"] > 0
    assert result["metrics"]["success_ratio"]["value"] < 1.0


def test_without_sources_it_fails_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "maps", "--seed", "1", "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
