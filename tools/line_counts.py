"""Count the lines of each module of a package by kind: code, docstring,
comment and blank.

    python3 tools/line_counts.py [DIR]

A line of a docstring (the string that opens a module, class or function
body, found with ``ast``) is a docstring line, blank or not.  Any other
line is blank when it holds only whitespace, a comment when it holds only
a comment, and code otherwise, an inline comment included.  DIR defaults
to the ``src/oortlab`` beside this script; the table has one row per
``*.py`` file in it, by name, and a total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def line_counts(source: str) -> dict[str, int]:
    """The number of lines of each kind in ``source``."""
    doc: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                doc.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for i, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        if i in doc:
            counts["docstring"] += 1
        elif not text:
            counts["blank"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def table(root: Path) -> str:
    rows = {path.stem: line_counts(path.read_text()) for path in sorted(root.glob("*.py"))}
    rows["total"] = {kind: sum(row[kind] for row in rows.values()) for kind in KINDS}
    width = max(map(len, rows))
    lines = [f"{'module':<{width}}" + "".join(f"{kind:>11}" for kind in KINDS)]
    lines += [f"{name:<{width}}" + "".join(f"{row[kind]:>11}" for kind in KINDS) for name, row in rows.items()]
    return "\n".join(lines)


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit("usage: line_counts.py [DIR]")
    root = Path(sys.argv[1]) if len(sys.argv) == 2 else Path(__file__).resolve().parent.parent / "src" / "oortlab"
    print(table(root))
