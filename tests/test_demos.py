"""Every name a demo imports from symgap exists.

No test runs the demos, so without this a renamed or deleted export breaks
a demo unnoticed.
"""
import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def _symgap_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each `from symgap... import name` in a demo."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "symgap"
        for alias in node.names
    ]


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(demo):
    imports = _symgap_imports(demo)
    assert imports, f"{demo.name} imports nothing from symgap"
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
