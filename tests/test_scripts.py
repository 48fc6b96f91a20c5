"""The repository scripts that other checks rely on."""

import importlib.util
from pathlib import Path

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
