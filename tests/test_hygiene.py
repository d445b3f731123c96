"""Source hygiene: every module under src/tritsynth uses what it imports.

__init__.py is exempt because its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

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
