"""The README's examples run as written: every `oscspec ...` line of its
"Command line" block through cli.main in-process, and its "Library quick
start" block.  pytest's filterwarnings = error turns any warning into a
failure."""

import shlex
from pathlib import Path

import pytest

from oscspec.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(section: str, language: str = "") -> str:
    """The first fenced block, opened as ```language, of README section `## section`."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return body.split(f"```{language}\n", 1)[1].split("```", 1)[0]


EXAMPLES = [shlex.split(line, comments=True)[1:]
            for line in fenced_block("Command line").splitlines() if line.startswith("oscspec ")]


def test_command_line_block_has_examples():
    assert EXAMPLES


@pytest.mark.parametrize("argv", EXAMPLES, ids=" ".join)
def test_command_line_example(argv, capsys):
    code = main(argv)
    assert code == EXIT_OK, capsys.readouterr().err


def test_library_quick_start():
    source = fenced_block("Library quick start", "python")
    assert source.strip()
    exec(compile(source, "README.md", "exec"), {})
