"""The README's alignment commands and its Library example run as written,
against the kittens grammar saved as ``grammar.txt``."""

import re
import shlex
from pathlib import Path

import pytest

from conftest import KITTENS_GRAMMAR
from icmup.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced(language, text=README):
    """The bodies of the code blocks in ``language`` of the README, or of
    ``text`` from it."""
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


ALIGNMENT_COMMANDS = [line for block in fenced("sh") for line in block.splitlines()
                      if re.match(r"icmup (align|parse|retrieve) ", line)]


@pytest.fixture()
def grammar_dir(tmp_path, monkeypatch):
    (tmp_path / "grammar.txt").write_text(KITTENS_GRAMMAR, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


def test_alignment_commands_found():
    assert [line.split()[1] for line in ALIGNMENT_COMMANDS] == ["align", "parse", "retrieve"]


@pytest.mark.parametrize("line", ALIGNMENT_COMMANDS)
def test_alignment_command_runs(grammar_dir, capsys, line):
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out


def test_library_example_runs(grammar_dir, capsys):
    example = fenced("python", README.split("## Library", 1)[1])[0]
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out
