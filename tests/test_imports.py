"""What the package's modules import: no name left unused, and nothing
that only `validate --jobs` needs is loaded with the CLI."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "oortlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module's import statements (``from __future__``
    aside) that no ``Name`` node in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check_sees_every_binding_form():
    source = "import os\nimport numpy as np\nfrom x import a, b as c\nfrom __future__ import annotations\nnp.zeros(a)\n"
    assert _unused_imports(source) == ["os", "c"]


def test_cli_import_leaves_out_the_process_pool():
    """Only `validate --jobs` above 1 uses `concurrent.futures.process`,
    so importing the CLI does not load it and every process starts
    without its cost."""
    code = "import sys, oortlab.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert proc.stdout.strip() == "False"
