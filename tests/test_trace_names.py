"""Every layer the benchmark's tracer wraps still exists in oortlab, so a
refactor cannot silently drop a traced layer."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from layers import SPANS  # noqa: E402


@pytest.mark.parametrize("module,path", [(m, a) for _, m, a in SPANS], ids=[n for n, _, _ in SPANS])
def test_traced_layer_resolves(module, path):
    owner = importlib.import_module(f"oortlab.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
