"""Static checks over the package source."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "untangler"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "untangler"}


def python_floor() -> tuple[int, int]:
    """The (major, minor) of pyproject.toml's ``requires-python = ">=X.Y"``."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.MULTILINE)
    assert match, "pyproject.toml declares no requires-python floor"
    return int(match[1]), int(match[2])


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_parses_at_the_python_floor(path):
    # grammar only, as far as ast's feature_version tracks it: a library
    # call that is newer than the floor still passes
    ast.parse(path.read_text(encoding="utf-8"), filename=path.name,
              feature_version=python_floor())
