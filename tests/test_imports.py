"""Every imported name is used: an unused import is dead code a reader must check."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source):
    """Names a module imports and never reads; names in __all__ count as read."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and ["__all__"] == [getattr(t, "id", "") for t in node.targets]:
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nimport sys as system\nfrom a.b import c, d\nd()\n") == [
        "c", "os", "system"]
    assert unused_imports("import os.path\nos.sep\n__all__ = ['x']\nfrom m import x\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
