"""The demos run end to end against the current API.

Each demo is copied into a temporary directory first, so the out/
directory it writes next to itself lands there and not in the tree.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
# The CSVs each demo must write, and the start of their header line.
CSV_OUTPUTS = {
    "03_trajectories_and_traces.py": {"trajectory.csv": "t,C,I,V\n",
                                      "lyapunov_trace.csv": "t,C,I,V,W,Wdot\n"},
    "04_stability_region.py": {"sweep.csv": "alpha,k,"},
}


def test_all_demos_collected():
    assert set(CSV_OUTPUTS) <= {demo.name for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    # -W error: the child does not inherit pytest's filterwarnings setting.
    proc = subprocess.run([sys.executable, "-W", "error", str(script)], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name, header in CSV_OUTPUTS.get(demo.name, {}).items():
        text = (tmp_path / "out" / name).read_text()
        assert text.startswith(header) and text.count("\n") > 1, name
