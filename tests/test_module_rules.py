"""Source rules for the aesdfa package, checked on the syntax tree.

Every name in a module's __all__ is defined at its top level, every
top-level def, class or assignment without a leading underscore is in
__all__, and no module imports an underscore name from a sibling module:
private helpers stay private to the module that owns them.

The public surface is what callers use. Every __all__ name is used from
another package module, from scripts/ or bench/, or named in README.md;
otherwise it is in ALLOWED with the reason it is public anyway. And every
name a module imports from a sibling is in that sibling's __all__.
"""

import ast
import re
from pathlib import Path

import pytest

import aesdfa

MODULES = sorted(Path(aesdfa.__file__).resolve().parent.glob("*.py"))
TREES = {path.stem: ast.parse(path.read_text()) for path in MODULES}
ROOT = Path(__file__).resolve().parent.parent

# Public although nothing outside its module uses it, and why.
ALLOWED = {
    "aes.Trace": "the type encrypt_trace and decrypt_traces return",
    "aes.TraceEntry": "the entry type of a Trace",
    "aes.decrypt_block": "acceptance criterion 1 checks it against OpenSSL",
    "aes.sub_bytes": "a single cipher-core operation",
    "aes.inv_sub_bytes": "a single cipher-core operation",
    "aes.shift_rows": "a single cipher-core operation",
    "aes.inv_shift_rows": "a single cipher-core operation",
    "aes.inv_mix_columns": "a single cipher-core operation",
    "analyze.OffsetProfile": "the type build_profile returns",
    "analyze.OffsetStats": "the per-offset type in an OffsetProfile",
    "buster.BustResult": "the type bust returns",
    "dfa.DiagonalGroup": "the type of DIAGONAL_GROUPS entries and of ColumnCandidates.group",
    "dfa.DIAGONAL_GROUPS": "acceptance criterion 9 solves one group of the toy cipher",
    "dfa.CipherTables": "acceptance criterion 9 runs the solver on the toy cipher's tables",
    "dfa.ColumnCandidates": "the type column_candidates returns",
    "dfa.DfaResult": "the type last_round_key returns",
    "dfa.single_column_key": "the paper's single-column attack for faults one round out",
    "engine.KeySlot": "the value type of KeyslotEngine.slots",
    "engine.SlotError": "the exception KeyslotEngine raises",
    "localizer.LocalizationReport": "the type localize returns",
    "orchestrator.AttackReport": "the type recover_key returns",
}


def exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def definitions(tree: ast.Module) -> list[str]:
    """Names bound at top level by a def, class or assignment, in order."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def undefined_exports(tree: ast.Module) -> list[str]:
    defined = set(definitions(tree))
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update((a.asname or a.name).split(".")[0] for a in node.names)
    return [name for name in exports(tree) if name not in defined]


def unexported_publics(tree: ast.Module) -> list[str]:
    """Public top-level definitions missing from __all__, in a module that has one."""
    if not any(name == "__all__" for name in definitions(tree)):
        return []
    return [name for name in definitions(tree) if not name.startswith("_") and name not in exports(tree)]


def private_sibling_imports(tree: ast.Module) -> list[str]:
    return [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "aesdfa")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def sibling_imports(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) per imported name: `from .aes import SBOX` gives ("aes", "SBOX")."""
    return [
        (node.module.rsplit(".", 1)[-1], alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module
        and (node.level > 0 or node.module.startswith("aesdfa."))
        for alias in node.names
    ]


def outside_words() -> set[str]:
    """Words of README.md, and the identifiers and string words of scripts/ and bench/.

    bench names functions by string ("dfa.column_candidates"), so string
    contents count; comments do not.
    """
    words = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in [*ROOT.glob("scripts/*.py"), *ROOT.glob("bench/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                words.add(node.id)
            elif isinstance(node, ast.Attribute):
                words.add(node.attr)
            elif isinstance(node, ast.alias):
                words.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                words.update(re.findall(r"\w+", node.value))
    return words


def unused_exports(module: str, trees: dict, outside: set[str], allowed: dict = ALLOWED) -> list[str]:
    used = {
        name
        for other, tree in trees.items() if other != module
        for mod, name in sibling_imports(tree) if mod == module
    }
    return [
        name for name in exports(trees[module])
        if name not in used and name not in outside and f"{module}.{name}" not in allowed
    ]


def unlisted_imports(module: str, trees: dict) -> list[str]:
    return [
        f"{mod}.{name}"
        for mod, name in sibling_imports(trees[module])
        if mod in trees and name not in exports(trees[mod])
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_are_defined(path):
    assert undefined_exports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_definitions_are_exported(path):
    assert unexported_publics(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_sibling_imports(path):
    assert private_sibling_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_has_a_user(path):
    assert unused_exports(path.stem, TREES, outside_words()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_sibling_imports_are_exported(path):
    assert unlisted_imports(path.stem, TREES) == []


def test_allowlist_names_exports():
    # a name that leaves __all__ leaves the allowlist too
    assert [key for key in ALLOWED if key.split(".")[1] not in exports(TREES[key.split(".")[0]])] == []


def test_rules_catch_violations():
    tree = ast.parse('from .aes import _cipher, SBOX\n__all__ = ["SBOX", "gone"]\n')
    assert undefined_exports(tree) == ["gone"]
    assert private_sibling_imports(tree) == ["line 1: _cipher"]

    source = 'import os\n__all__ = ["f"]\ndef f(): pass\ndef g(): pass\nclass C: pass\nN: int = 1\n_p = 2\n'
    assert unexported_publics(ast.parse(source)) == ["g", "C", "N"]
    assert unexported_publics(ast.parse("def g(): pass\n")) == []  # no __all__, no rule

    trees = {
        "aes": ast.parse('__all__ = ["SBOX", "sub_bytes", "in_readme", "lonely"]\n'),
        "dfa": ast.parse("from .aes import SBOX, hidden\n__all__ = []\n"),
    }
    allowed = {"aes.sub_bytes": "a single cipher-core operation"}
    assert unused_exports("aes", trees, {"in_readme"}, allowed) == ["lonely"]
    assert unlisted_imports("dfa", trees) == ["aes.hidden"]
