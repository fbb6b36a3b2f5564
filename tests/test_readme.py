"""The README's library example and command lines run as written, and its
suite list and suite table name every registered suite."""

import re
import shlex
from pathlib import Path

from orbivertex.cli import EXIT_OK, main
from orbivertex.verify import SUITES

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs():
    text = README.read_text()
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "g_bullet_mu(1, (1,)) == r_bullet_zero(1, (1,))" in block
    exec(compile(block, str(README), "exec"), {})


def test_command_lines_exit_zero(capsys):
    commands = [
        line.strip().removeprefix("$ ")
        for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
        for line in block.splitlines()
    ]
    commands = [c for c in commands if c.startswith("orbivertex ") and "PLAN.json" not in c]
    assert len(commands) >= 6
    for command in commands:
        assert main(shlex.split(command)[1:]) == EXIT_OK, command
        capsys.readouterr()


def test_suite_list_and_table_name_every_suite():
    text = README.read_text()
    listed = re.search(r"A verification suite \(one of (.*?)\):", text, re.S).group(1)
    table = text[text.index("| suite | flags (default) |"):]
    table = table[: table.index("\n\n")]
    rows = re.findall(r"^\| `([^`]+)` \|", table, re.M)
    assert re.findall(r"`([^`]+)`", listed) == sorted(SUITES)
    assert sorted(rows) == sorted(SUITES)
