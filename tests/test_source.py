"""Static checks over the package source."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "untangler"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "untangler"}


def imports(tree):
    """(top-level module or None for a relative import, name bound) per
    imported name; `from __future__` binds nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = None if node.level else node.module.split(".")[0]
            for alias in node.names:
                yield module, alias.asname or alias.name


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_numpy_or_stdlib_and_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = list(imports(tree))
    outside = sorted({m for m, _ in bound if m is not None and m not in ALLOWED})
    assert outside == [], f"{path.name} imports {outside}: the runtime is numpy-only"
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted({name for _, name in bound} - used)
    assert unused == [], f"{path.name} imports {unused} and never uses them"
