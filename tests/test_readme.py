"""The README's examples run: its python block, and every heisenheat command of its sh blocks.

Axis names are the kernels' spatial argument names, so renaming an argument
changes the CLI; the eval examples here catch that.
"""

import pathlib
import re
import shlex

from heisenheat import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


def _commands():
    """Arguments of each heisenheat line in the sh blocks, continuations joined and comments dropped."""
    commands = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["heisenheat"]:
                commands.append(argv[1:])
    return commands


def test_python_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (block,) = _blocks("python")
    exec(compile(block, str(README), "exec"), {})


def test_cli_commands_exit_0(tmp_path, monkeypatch):
    # in README order: apply reads the field that the eval before it wrote
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    commands = _commands()
    assert {argv[0] for argv in commands} == {"eval", "apply", "verify", "identities"}
    for argv in commands:
        assert cli.main(argv) == 0, argv
