"""The repository scripts that other checks rely on."""

import importlib.util
import sys
from pathlib import Path

import pytest

from noisemix import cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line


# a comment-only line
def f(x):
    """One-line docstring."""
    return math.fsum(
        [x, 1.0],
    )
'''


def test_count_code_lines_skips_docstrings_comments_and_blanks():
    # the import, the def, and the three lines of the call
    assert load_script("count_code_lines").count_code_lines(SOURCE) == 5


def test_count_code_lines_covers_the_package(capsys):
    script = load_script("count_code_lines")
    assert script.main(["count_code_lines.py"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].split()[1] == "total"
    assert int(lines[-1].split()[0]) == sum(int(line.split()[0]) for line in lines[:-1])
    assert "trainer.py" in {line.split()[1] for line in lines}


CLI_SCRIPTS = sorted(p.stem for p in SCRIPTS.glob("*.py") if "cli_main" in p.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", CLI_SCRIPTS)
def test_script_argv_parses_as_a_command(name, monkeypatch):
    # a script left calling a removed subcommand or flag fails here, not when someone runs it
    calls = []
    script = load_script(name)
    monkeypatch.setattr(script, "cli_main", lambda argv: calls.append(argv) or 0)
    monkeypatch.setattr(sys, "argv", [f"{name}.py"])
    assert script.main() == 0
    assert len(calls) == 1
    cli.build_parser().parse_args(calls[0])


def test_every_cli_script_is_checked():
    assert CLI_SCRIPTS == ["run_ablation", "run_default"]
