"""The README's examples run as written: its JSON config through each
usage line of "Command line", and its "Library quick start" block."""

import pathlib
import re
import shlex

import retrodyn.cli
from retrodyn.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def _fenced(lang):
    # each match takes an opening fence and its closing one, so a closing
    # fence is never read as the start of a block
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
    return [body for tag, body in blocks if tag == lang]


def test_readme_cli_examples(tmp_path, capsys):
    (config,) = _fenced("json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    usage = [line for block in _fenced("") for line in block.splitlines()
             if line.startswith("retrodyn ")]
    commands = []
    for line in usage:
        argv, comment = line.split("#", 1)
        argv = shlex.split(argv)[1:]
        command = argv[-1]
        commands.append(command)
        # the sections named beside the line are those the CLI checks
        needs = comment.split(";")[0].removeprefix(" needs ").split(", ")
        assert needs == list(retrodyn.cli._COMMANDS[command][1] or ["no other section"]), line
        assert main([str(cfg) if arg == "cfg.json" else arg for arg in argv]) == 0, line
        assert capsys.readouterr().err == "", line
    assert commands == ["equilibria", "simulate", "stability", "sweep", "lyapunov"]


def test_readme_quick_start(capsys):
    (block,) = _fenced("python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("Verdict.STABLE\n")
