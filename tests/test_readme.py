"""Every ``decoq`` command in README's command-line block runs and exits 0."""
import shlex
from pathlib import Path

import pytest

from decoq.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _readme_commands():
    """The argument lists of the ``decoq`` lines in the first ``sh`` block
    after the command-line heading, continuation lines joined."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command-line interface\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("decoq ")]


COMMANDS = _readme_commands()


def test_the_readme_block_is_found():
    assert len(COMMANDS) == 7


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "device.json").write_text("{}")
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
