"""Every name a package module imports is used, and ``__init__`` exports
every name it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "teleportlab"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_names(tree: ast.Module) -> list:
    """Names bound by import statements anywhere in the module, except
    ``from __future__`` imports."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = _imported_names(tree)
    if path.stem == "__init__":
        exported = next(ast.literal_eval(node.value) for node in tree.body
                        if isinstance(node, ast.Assign)
                        and [t.id for t in node.targets] == ["__all__"])
        used = set(exported)
    else:
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported if name not in used] == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_relative_import_inside_a_function(path):
    # package modules import each other at the top only, so the module
    # headers show the whole layering; a third-party import may be lazy
    tree = ast.parse(path.read_text())
    lazy = [f"{func.name}: from {'.' * node.level}{node.module or ''}"
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert lazy == []
