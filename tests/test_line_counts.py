"""tools/line_counts.py on a small fixture source."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "line_counts.py"
_spec = importlib.util.spec_from_file_location("line_counts", TOOL)
line_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_counts)

FIXTURE = '''"""Module docstring,

over three lines."""

import os  # an inline comment keeps a code line


# a comment line
class A:
    """One line."""

    def f(self):
        """Two

        blank-separated."""
        text = """a multi-line string
that is no docstring"""
        "nor is a later string"
        return text


async def g():
    pass
'''


def test_counts_each_kind_of_line():
    assert line_counts.line_counts(FIXTURE) == {"code": 9, "docstring": 7, "comment": 1, "blank": 6}


def test_table_lists_each_module_and_the_total(tmp_path):
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\n\n# done\n")
    rows = [line.split() for line in line_counts.table(tmp_path).splitlines()]
    assert rows == [
        ["module", "code", "docstring", "comment", "blank"],
        ["a", "1", "0", "1", "1"],
        ["b", "9", "7", "1", "6"],
        ["total", "10", "7", "2", "7"],
    ]
