"""Static checks over the package source."""

import ast
import os

import pytest

PKG = os.path.join(os.path.dirname(__file__), os.pardir, "src", "treesym")
MODULES = sorted(f for f in os.listdir(PKG) if f.endswith(".py") and f != "__init__.py")

# names a module imports only to re-export them (the comment beside
# oracle.py's import of is_proper says why)
RE_EXPORTS = {"oracle.py": {"is_proper"}}


def unused_imports(source: str) -> set:
    """Names a module imports, at any depth, and never references."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b, c as d\nos.sep\n") == {"b", "d"}
    assert unused_imports("def f():\n    import json\n    return 1\n") == {"json"}
    assert unused_imports("from __future__ import annotations\n") == set()


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PKG, module), encoding="utf-8") as f:
        unused = unused_imports(f.read()) - RE_EXPORTS.get(module, set())
    assert not unused, f"{module} imports but never uses: {', '.join(sorted(unused))}"
