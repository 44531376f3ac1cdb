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
    # parameters with a default that no caller sets: module.function.param
    "dfa.column_candidates.tables": "acceptance criterion 9 runs the solver on the toy cipher's tables",
    "dfa.last_round_key.on_conflict": "acceptance criteria 2 and 8 drop inconsistent pairs with 'skip'",
}
CALLERS = [*TREES.values(), *(ast.parse(p.read_text()) for p in [*ROOT.glob("scripts/*.py"), *ROOT.glob("bench/*.py")])]


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
def defaulted_parameters(tree: ast.Module) -> dict[str, tuple[ast.AST, str]]:
    """`function.param`, or `Class.method.param`, for every parameter with a
    default of a function in __all__ or a public method of a class in
    __all__, mapped to (the function's node, the parameter's name)."""
    functions = []
    for node in tree.body:
        if getattr(node, "name", None) not in exports(tree):
            continue
        if isinstance(node, ast.ClassDef):
            functions += [
                (f"{node.name}.{fn.name}", fn) for fn in node.body
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
            ]
        elif isinstance(node, ast.FunctionDef):
            functions.append((node.name, node))
    found = {}
    for name, fn in functions:
        positional = [*fn.args.posonlyargs, *fn.args.args]
        with_defaults = positional[len(positional) - len(fn.args.defaults):]
        with_defaults += [a for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
        found.update({f"{name}.{arg.arg}": (fn, arg.arg) for arg in with_defaults})
    return found


def unset_defaults(module: str, trees: dict, callers: list, allowed: dict = ALLOWED) -> list[str]:
    """Parameters with a default that no call outside the function passes by
    keyword, and that `allowed` does not list.

    A call matches on the keyword's name alone, whatever it calls, so a
    same-named keyword passed to another function hides an unset default.
    """
    keywords = [(call, kw.arg) for tree in callers for call in ast.walk(tree)
                if isinstance(call, ast.Call) for kw in call.keywords]
    unset = []
    for name, (fn, param) in defaulted_parameters(trees[module]).items():
        own = {id(node) for node in ast.walk(fn)}
        if not any(arg == param and id(call) not in own for call, arg in keywords):
            unset.append(f"{module}.{name}")
    return [key for key in unset if key not in allowed]


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
def test_every_default_has_a_caller(path):
    assert unset_defaults(path.stem, TREES, CALLERS) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_sibling_imports_are_exported(path):
    assert unlisted_imports(path.stem, TREES) == []


def test_allowlist_names_exports():
    # a name that leaves __all__, or a parameter that loses its default, leaves the allowlist too
    assert [key for key in ALLOWED if key.split(".")[1] not in exports(TREES[key.split(".")[0]])] == []
    params = [key.split(".", 1) for key in ALLOWED if key.count(".") > 1]
    assert [f"{m}.{p}" for m, p in params if p not in defaulted_parameters(TREES[m])] == []


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

    trees["dfa"] = ast.parse(
        '__all__ = ["solve", "C"]\n'
        "def solve(a, b=1, *, c=2, d, e=3):\n    solve(a, b=2)\n"
        "class C:\n    def run(self, x=0): pass\n    def _hidden(self, y=0): pass\n"
        "def _private(z=0): pass\n"
    )
    caller = ast.parse("solve(1, c=3)\nC().run(x=1)\n")
    assert unset_defaults("dfa", trees, [*trees.values(), caller], {"dfa.solve.e": "a reason"}) == ["dfa.solve.b"]
