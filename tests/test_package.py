import ast
from pathlib import Path

import clipreg


def test_all_names_resolve():
    assert len(set(clipreg.__all__)) == len(clipreg.__all__)
    assert [name for name in clipreg.__all__ if not hasattr(clipreg, name)] == []


def test_star_import():
    namespace = {}
    exec("from clipreg import *", namespace)
    assert set(clipreg.__all__) <= set(namespace)


def unused_imports(source: str) -> list:
    """The names that the module-level imports of `source` bind and that
    the module neither references nor lists in `__all__`."""
    tree = ast.parse(source)
    bound, exported = [], set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used | exported]


def test_unused_imports_are_found():
    assert unused_imports("import os\nimport a.b\nfrom c import d, e as f\nos.sep\n") == \
        ["a", "d", "f"]
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_unused_import_in_the_package():
    # a module that keeps an import only for tests to take it from there fails
    found = {p.name: unused_imports(p.read_text())
             for p in sorted(Path(clipreg.__file__).parent.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
