"""Source rules for the aesdfa package, checked on the syntax tree.

Every name in a module's __all__ is defined at its top level, and no module
imports an underscore name from a sibling module: private helpers stay
private to the module that owns them.
"""

import ast
from pathlib import Path

import pytest

import aesdfa

MODULES = sorted(Path(aesdfa.__file__).resolve().parent.glob("*.py"))


def undefined_exports(tree: ast.Module) -> list[str]:
    defined, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            defined |= names
            if "__all__" in names:
                exported = list(ast.literal_eval(node.value))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update((a.asname or a.name).split(".")[0] for a in node.names)
    return [name for name in exported if name not in defined]


def private_sibling_imports(tree: ast.Module) -> list[str]:
    return [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "aesdfa")
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_are_defined(path):
    assert undefined_exports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_sibling_imports(path):
    assert private_sibling_imports(ast.parse(path.read_text())) == []


def test_rules_catch_violations():
    tree = ast.parse('from .aes import _cipher, SBOX\n__all__ = ["SBOX", "gone"]\n')
    assert undefined_exports(tree) == ["gone"]
    assert private_sibling_imports(tree) == ["line 1: _cipher"]
