"""No dead definitions in the package: every function, class and method
defined in ``src/oortlab`` (dunders aside) is read somewhere other than
inside its own definition, in the package or its tests, or is a layer the
benchmark's tracer wraps (``perfbench/layers.py`` SPANS)."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from layers import SPANS  # noqa: E402

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(tree: ast.AST) -> list[str]:
    """The names read by every ``Name`` and ``Attribute`` node in tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
    return out


def _dead_definitions(sources: dict[str, str], readers: list[str], named: set[str]) -> list[str]:
    """``file:name`` of each non-dunder definition in sources that no
    ``Name`` or ``Attribute`` node reads outside its own body, in sources
    or readers, and that is not in named."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    reads = {}
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        for name in _reads(tree):
            reads[name] = reads.get(name, 0) + 1
    dead = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFS) or node.name in named:
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            own = _reads(node).count(node.name)
            if reads.get(node.name, 0) <= own:
                dead.append(f"{path}:{node.name}")
    return sorted(dead)


def test_every_definition_in_the_package_is_read():
    sources = {p.name: p.read_text() for p in sorted((ROOT / "src" / "oortlab").glob("*.py"))}
    readers = [p.read_text() for p in sorted((ROOT / "tests").glob("*.py"))]
    named = {part for _, _, path in SPANS for part in path.split(".")}
    assert _dead_definitions(sources, readers, named) == []


def test_dead_definition_check_sees_methods_recursion_and_spans():
    source = (
        "class G:\n"
        "    def used(self): return self.small()\n"
        "    def small(self): return 1\n"
        "    def dead(self): return 2\n"
        "    def __repr__(self): return ''\n"
        "def walk(n): return walk(n - 1)\n"
        "def traced(): pass\n"
    )
    reader = "G().used()\n"
    assert _dead_definitions({"m.py": source}, [reader], {"traced"}) == ["m.py:dead", "m.py:walk"]
