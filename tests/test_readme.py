"""The README's library example and command lines run as written."""

import re
import shlex
from pathlib import Path

from bandrec.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """Every `bandrec` line of the README's sh blocks, continuations joined, in order."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("bandrec ")]


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # one line per hypothesis of the four readings
    assert len(lines) == 4


def test_cli_commands_run_in_order(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    # each later command reads a file an earlier one writes
    assert [argv[0] for argv in commands] == [
        "ed", "ed", "ed", "reconstruct", "forward", "criterion", "convergence", "kernel",
    ]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    # the single-hypothesis variant the README names
    (reconstruct,) = [argv for argv in commands if argv[0] == "reconstruct"]
    assert reconstruct.count("auto") == 1
    variant = ["fermion-abc" if arg == "auto" else arg for arg in reconstruct]
    assert main(variant) == 0, capsys.readouterr().err
