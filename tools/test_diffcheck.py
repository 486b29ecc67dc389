"""The parent-diff tool against known answers: a tree compared with
itself differs nowhere, and a tree with one kernel constant or one line
of the map path changed differs where that code runs.  Each test
compares a copy of the working tree's ``src`` with the working tree, so
uncommitted code is what is checked.  The tool takes a few seconds per
call, so these run as ``python -m pytest -q tools``, apart from the
Tier-1 suite."""

import re
import shutil

import diffcheck

SRC = diffcheck.ROOT / "src"


def _counts(summary):
    return {name: int(bad) for name, bad in re.findall(r"(\w+) (\d+)/\d+", summary)}


def _copy(tmp_path):
    return shutil.copytree(SRC, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_tree_against_itself(tmp_path, capsys):
    assert diffcheck.main(["--against", str(SRC), "--src", str(_copy(tmp_path))]) == 0
    out = capsys.readouterr()
    summary = out.out.splitlines()[-1]
    assert summary.endswith("; 0 mismatches") and out.err == ""
    counts = _counts(summary)
    assert set(counts) == set(diffcheck.COMMANDS + diffcheck.FUNCTIONS) | {"stability_map"}
    assert not any(counts.values())


def _mutated(tmp_path, module, old, new):
    # the working tree's src with the one occurrence of old in module replaced by new
    src = _copy(tmp_path)
    path = src / "retrodyn" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return src


def test_changed_kernel_constant_is_reported(tmp_path, capsys):
    # condition 4's corrected right-hand side quartered -> fifthed
    src = _mutated(tmp_path, "lyapunov.py", "y * y / 4", "y * y / 5")
    assert diffcheck.main(["--against", str(SRC), "--src", str(src)]) == 1
    out = capsys.readouterr()
    counts = _counts(out.out.splitlines()[-1])
    assert counts["condition4"] > 0 and counts["stability"] > 0
    assert counts["inner_equilibrium"] == counts["simulate"] == 0
    assert "mismatch: condition4 on function " in out.err


def test_changed_cell_text_is_reported(tmp_path, capsys):
    # the map CSV writes Stable for Marginal: rescaled maps hold Marginal
    # cells (MARGINAL_TOL is absolute), and so do the x1e103 configs
    src = _mutated(tmp_path, "sweep.py", "cell.rh_verdict.value,",
                   "cell.rh_verdict.value.replace(\"Marginal\", \"Stable\"),")
    assert diffcheck.main(["--against", str(SRC), "--src", str(src)]) == 1
    out = capsys.readouterr()
    counts = _counts(out.out.splitlines()[-1])
    assert counts["stability_map"] > 0 and counts["sweep"] > 0
    assert counts["evaluate_cell"] == counts["stability"] == 0
    assert "mismatch: stability_map on map " in out.err


def test_indefinite_first_guess_is_reported(tmp_path, capsys):
    # the sweep's first guess accepted without its third minor
    src = _mutated(tmp_path, "lyapunov.py", "if d1 > 0.0 and d2 > 0.0 and d3 > 0.0:\n        return True",
                   "if d1 > 0.0 and d2 > 0.0:\n        return True")
    assert diffcheck.main(["--against", str(SRC), "--src", str(src)]) == 1
    counts = _counts(capsys.readouterr().out.splitlines()[-1])
    assert counts["stability_map"] > 0 and counts["evaluate_cell"] > 0
    assert counts["search_coeffs"] == counts["condition4"] == 0
