"""Source hygiene for the modules under src/tritsynth.

Every module uses what it imports (__init__.py is exempt because its
imports are re-exports), only the boundary functions that take trits
from outside call Trit(), and each snippet on the coverage probe's
allow-list names exactly one place in the source.
"""

import ast
from pathlib import Path

import pytest

from coverage_probe import ALLOWED

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tritsynth"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements that no ast.Name in the module reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_scan_flags_only_unread_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Iterator, Optional as Opt\n"
        "from .core import Trit, TRITS\n"
        "def f(x: Opt[int]) -> Trit:\n"
        "    return os.path.join(TRITS)\n"
    )
    assert unused_imports(source) == ["Iterator"]


def test_package_modules_are_found():
    assert {p.name for p in MODULES} >= {"core.py", "expr.py", "gates.py", "synth.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# The functions through which trit values enter the package.  Trit() checks
# a value; everything behind these functions works on values that are
# already Trits and indexes TRITS, so a Trit() call anywhere else is a
# check repeated on every row of some loop.
TRIT_BOUNDARIES = {
    "core.t_and",
    "core.t_or",
    "core.t_not",
    "core.gf3_add",
    "core.gf3_mul",
    "core.proj",
    "core.ShiftOp.__post_init__",
    "core.ShiftOp.apply",
    "expr.Proj.__post_init__",
    "expr.Fused.__post_init__",
    "expr.Const.__post_init__",
    "expr.Expr.eval",
    "gates.Netlist.__post_init__",
    "gates.Netlist.add_ancilla",
    "sim.simulate",
    "sim._ancillas",
    "truthtables.lex_index",
    "truthtables.TernaryFunction.__post_init__",
    "truthtables.TernaryFunction.from_string",
}


def trit_callers(source, module):
    """Qualified names (module.Class.function) of the scopes that call Trit()."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id == "Trit") or (
                    isinstance(func, ast.Attribute) and func.attr == "Trit"
                ):
                    found.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), (module,))
    return found


def test_scan_finds_trit_calls_by_scope():
    source = (
        "X = Trit(0)\n"
        "def f(v):\n"
        "    return [core.Trit(w) for w in v]\n"
        "class C:\n"
        "    def g(self, v):\n"
        "        return isinstance(v, Trit) and TRITS[v]\n"
        "    def h(self, v):\n"
        "        def inner():\n"
        "            return Trit(v)\n"
    )
    assert trit_callers(source, "m") == {"m", "m.f", "m.C.h.inner"}


def test_only_boundary_functions_call_trit():
    found = set()
    for path in MODULES:
        found |= trit_callers(path.read_text(), path.stem)
    assert found - TRIT_BOUNDARIES == set(), "Trit() outside the boundary functions"
    assert TRIT_BOUNDARIES - found == set(), "stale TRIT_BOUNDARIES entries"


@pytest.mark.parametrize("snippet", sorted(ALLOWED))
def test_coverage_allow_list_snippet_occurs_once(snippet):
    sources = [p.read_text() for p in PACKAGE.glob("*.py")]
    assert sum(s.count(snippet) for s in sources) == 1
