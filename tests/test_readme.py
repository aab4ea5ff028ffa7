"""README's examples run as written: its Python block and each CLI line."""

import re
import shlex
import shutil

import pytest

from conftest import FIXTURES
from signed_influence.cli import main

README = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)
PYTHON = [body for lang, body in BLOCKS if lang == "python"]
CLI = [line for lang, body in BLOCKS if lang == "sh" for line in body.splitlines()
       if line.startswith("signed-influence ")]


@pytest.fixture
def in_copy(tmp_path, monkeypatch):
    """A working directory holding a copy of fixtures/, as the examples expect."""
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)


def test_readme_has_examples():
    # the parametrised tests below pass vacuously if the blocks are not found
    assert PYTHON and CLI


@pytest.mark.parametrize("block", PYTHON)
def test_python_example_runs(in_copy, block):
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("line", CLI)
def test_cli_example_exits_0(in_copy, capsys, line):
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err
