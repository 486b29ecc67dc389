"""The parent-diff tool against known answers: a tree compared with
itself differs nowhere, and a tree with one kernel constant or one line
of the map path or the trace changed differs where that code runs.  Each test
compares a copy of the working tree's ``src`` with the working tree, so
uncommitted code is what is checked.  The tool takes a few seconds per
call, so these run as ``python -m pytest -q tools``, apart from the
Tier-1 suite."""

import re
import shutil

import diffcheck

SRC = diffcheck.ROOT / "src"


def _counts(summary):
    """{section: {name: (mismatches, of them unscaled)}} from the summary line."""
    sections = re.findall(r"(\w+): ((?:\w+ \d+/\d+ \(\d+ unscaled\)(?:, )?)+)", summary)
    return {section: {name: (int(bad), int(unscaled))
                      for name, bad, unscaled in re.findall(r"(\w+) (\d+)/\d+ \((\d+) unscaled\)", part)}
            for section, part in sections}


def _copy(tmp_path):
    return shutil.copytree(SRC, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_tree_against_itself(tmp_path, capsys):
    assert diffcheck.main(["--against", str(SRC), "--src", str(_copy(tmp_path))]) == 0
    out = capsys.readouterr()
    summary = out.out.splitlines()[-1]
    assert summary.endswith("; 0 mismatches (0 unscaled)") and out.err == ""
    counts = _counts(summary)
    assert {section: set(names) for section, names in counts.items()} == {
        "commands": set(diffcheck.COMMANDS), "functions": set(diffcheck.FUNCTIONS),
        "maps": {"stability_map"}, "traces": set(diffcheck.TRACED)}
    assert {value for names in counts.values() for value in names.values()} == {(0, 0)}


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
    assert counts["functions"]["condition4"][1] > 0 and counts["commands"]["stability"][1] > 0
    assert counts["functions"]["inner_equilibrium"] == counts["commands"]["simulate"] == (0, 0)
    assert "mismatch: condition4 on function " in out.err


def test_changed_cell_text_is_reported(tmp_path, capsys):
    # the map CSV writes Stable for Unstable: maps in any units hold
    # Unstable cells, and so do the sweeps of the configs
    src = _mutated(tmp_path, "sweep.py", "cell.rh_verdict.value,",
                   "cell.rh_verdict.value.replace(\"Unstable\", \"Stable\"),")
    assert diffcheck.main(["--against", str(SRC), "--src", str(src)]) == 1
    out = capsys.readouterr()
    counts = _counts(out.out.splitlines()[-1])
    assert counts["maps"]["stability_map"][1] > 0 and counts["commands"]["sweep"][0] > 0
    assert counts["functions"]["evaluate_cell"] == counts["commands"]["stability"] == (0, 0)
    assert "mismatch: stability_map on map " in out.err


def test_indefinite_first_guess_is_reported(tmp_path, capsys):
    # the sweep's first guess accepted without its third minor
    src = _mutated(tmp_path, "lyapunov.py", "if d1 > 0.0 and d2 > 0.0 and d3 > 0.0:\n        return True",
                   "if d1 > 0.0 and d2 > 0.0:\n        return True")
    assert diffcheck.main(["--against", str(SRC), "--src", str(src)]) == 1
    counts = _counts(capsys.readouterr().out.splitlines()[-1])
    assert counts["maps"]["stability_map"][0] > 0 and counts["functions"]["evaluate_cell"][0] > 0
    assert counts["functions"]["search_coeffs"] == counts["functions"]["condition4"] == (0, 0)


def test_one_ulp_in_w_dot_is_reported(tmp_path, capsys):
    # dW/dt's C term with 1.0 one ulp up: the traced commands differ,
    # and nothing that does not sample dW/dt
    src = _mutated(tmp_path, "lyapunov.py", "(1.0 - pt.C / C)", "(1.0000000000000002 - pt.C / C)")
    assert diffcheck.main(["--against", str(SRC), "--src", str(src)]) == 1
    out = capsys.readouterr()
    counts = _counts(out.out.splitlines()[-1])
    assert counts["traces"]["lyapunov"][0] > 0 and counts["commands"]["lyapunov"][0] > 0
    assert counts["traces"]["simulate"] == counts["commands"]["simulate"] == (0, 0)
    assert {value for section in ("functions", "maps") for value in counts[section].values()} == {(0, 0)}
    assert "mismatch: lyapunov on trace " in out.err


def test_record_reads_as_its_fields(monkeypatch):
    # field by field in vars() order, whatever builds the record's class
    monkeypatch.syspath_prepend(str(SRC))
    from retrodyn import Equilibrium, EquilibriumKind, State

    eq = Equilibrium(State(1.0, 0.5, 2.0), EquilibriumKind.INNER)
    assert diffcheck.canon(eq) == {
        "type": "Equilibrium",
        "point": {"type": "State", "C": (1.0).hex(), "I": (0.5).hex(), "V": (2.0).hex()},
        "kind": "EquilibriumKind.INNER",
    }
