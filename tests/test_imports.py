"""Tooling guard: every name a package module imports is used there or exported."""

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


def test_guard_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path as osp\nimport numpy as np\n"
              "from typing import Dict, List\nfrom .x import exported\n"
              "__all__ = ['exported']\n"
              "def f(a: Dict) -> None:\n    return np.zeros(1)\n")
    assert unused_imports(source) == ["List", "os", "osp"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
