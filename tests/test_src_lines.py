"""``tools/src_lines.py`` counts the lines every ``src/`` size is quoted in.

A code line holds a token other than a comment, a docstring or
whitespace; a token that spans several lines counts on each of them.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

# Code lines: 4, 7, 10, 12, 16, 17 and 18.
FIXTURE = '''"""Module docstring,
on two lines."""
# a comment-only line
import os


class A:
    """Class docstring."""

    x = 1  # a trailing comment

    def f(self):
        """Function
        docstring."""
        # another comment-only line
        return os.sep + """a
b
c"""
'''


def _tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_lines_skips_docstrings_comments_and_blank_lines(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    assert _tool().count_lines(path) == (18, 7)


def test_main_prints_a_row_per_module_and_a_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "b.py").write_text("# only a comment\nx = (\n    1,\n)\n", encoding="utf-8")
    assert _tool().main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "lines", "code"],
        ["a.py", "18", "7"],
        ["b.py", "4", "3"],
        ["total", "22", "10"],
    ]
