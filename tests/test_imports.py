"""Tooling guards: every name a package module imports is used there or exported,
and every private module-level name it defines is read there."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "roundabout_sim"


def unused_imports(source: str) -> list:
    """Names bound by imports in ``source`` that it neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    bound = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read - exported)


def unread_private(source: str) -> list:
    """Module-level ``_private`` functions, classes and constants that ``source`` never reads."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(private - read)


def test_guard_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path as osp\nimport numpy as np\n"
              "from typing import Dict, List\nfrom .x import exported\n"
              "__all__ = ['exported']\n"
              "def f(a: Dict) -> None:\n    return np.zeros(1)\n")
    assert unused_imports(source) == ["List", "os", "osp"]


def test_private_guard_flags_only_unread_names():
    source = ("_A = 1\n_B, _C = 2, 3\n_D: int = 4\n__all__ = []\n"
              "def _f():\n    return _A\n"
              "def _g():\n    pass\n"
              "class _K:\n    pass\n"
              "class Public:\n    _slot = _D\n"
              "x = _f() + _C\n")
    assert unread_private(source) == ["_B", "_K", "_g"]


MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unread_private_helpers(module):
    assert unread_private((PACKAGE / module).read_text(encoding="utf-8")) == []
