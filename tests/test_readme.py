"""The README's examples run as written.

The ``python`` blocks run in order in one namespace.  Each ``cslsurf``
command of the ``bash`` blocks runs through ``cli.main`` with its report
written to a file, split into words as bash splits it: a backslash at a
line's end continues the line, and a quoted word may span lines.
"""

import re
import shlex
from pathlib import Path

import pytest

from cslsurf.cli import _ALL, _REQUIRED, _SETTINGS, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)


def _commands(block):
    """The word lists of the commands of a bash block."""
    pending = ""
    for line in block.replace("\\\n", "").splitlines(keepends=True):
        pending += line
        try:
            words = shlex.split(pending, comments=True)
        except ValueError:           # a quoted word goes on to the next line
            continue
        pending = ""
        if words:
            yield words


CLI_COMMANDS = [words for block in _blocks("bash") for words in _commands(block)
                if words[0] == "cslsurf"]


def test_python_examples_run():
    blocks = _blocks("python")
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


@pytest.mark.parametrize("words", CLI_COMMANDS, ids=[w[1] for w in CLI_COMMANDS])
def test_cli_examples_exit_zero(words, tmp_path):
    assert main(words[1:] + ["--out", str(tmp_path / "report")]) == 0
    assert (tmp_path / "report").stat().st_size > 0


def test_every_cli_example_is_collected():
    assert [w[1] for w in CLI_COMMANDS] == ["tensors", "rates", "validate", "sweep", "dephasing"]


def _default_cell(default):
    """How the settings table writes a default; None for one it describes."""
    if default is _REQUIRED:
        return "required"
    if default is None or callable(default):
        return None
    if isinstance(default, (bool, str)):
        return f"`{str(default).lower()}`"
    return str(default) if isinstance(default, int) else f"{default:g}"


def test_settings_table_is_the_cli_settings():
    header, _, *rows = re.search(r"^\| setting \|.*?\n\n", README,
                                 flags=re.DOTALL | re.MULTILINE).group(0).strip().splitlines()
    commands = [c.strip(" `") for c in header.strip("|").split("|")[1:]]
    assert commands == list(_ALL)
    table = {}
    for row in rows:
        name, *cells = (c.strip() for c in row.strip("|").split("|"))
        table[name.strip("`")] = dict(zip(commands, cells))
    assert list(table) == list(_SETTINGS)
    for name, setting in _SETTINGS.items():
        for command, cell in table[name].items():
            if command not in setting.defaults:
                assert cell == "—", (name, command)
                continue
            want = _default_cell(setting.defaults[command])
            assert cell == want if want else cell not in ("—", "required"), (name, command)
