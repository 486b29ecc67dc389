"""The parent-diff tool against known answers: a tree compared with
itself differs nowhere, and a tree with one kernel constant changed
differs where that constant is read.  Needs git history, so it runs as
``python -m pytest -q tools``, apart from the Tier-1 suite."""

import re

import diffcheck


def _counts(summary):
    return {name: int(bad) for name, bad in re.findall(r"(\w+) (\d+)/\d+", summary)}


def test_head_against_itself(tmp_path, capsys):
    src = diffcheck.extract("HEAD", tmp_path)
    assert diffcheck.main(["--against", "HEAD", "--src", str(src)]) == 0
    out = capsys.readouterr()
    summary = out.out.splitlines()[-1]
    assert summary.endswith("; 0 mismatches") and out.err == ""
    counts = _counts(summary)
    assert set(counts) == set(diffcheck.COMMANDS + diffcheck.FUNCTIONS)
    assert not any(counts.values())


def test_changed_kernel_constant_is_reported(tmp_path, capsys):
    # condition 4's corrected right-hand side quartered -> fifthed
    src = diffcheck.extract("HEAD", tmp_path)
    kernel = src / "retrodyn" / "lyapunov.py"
    text = kernel.read_text()
    assert text.count("y * y / 4") == 1
    kernel.write_text(text.replace("y * y / 4", "y * y / 5"))
    assert diffcheck.main(["--against", "HEAD", "--src", str(src)]) == 1
    out = capsys.readouterr()
    counts = _counts(out.out.splitlines()[-1])
    assert counts["condition4"] > 0 and counts["stability"] > 0
    assert counts["inner_equilibrium"] == counts["simulate"] == 0
    assert "mismatch: condition4 on function " in out.err
