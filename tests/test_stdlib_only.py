"""The runtime depends on the standard library alone."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import finmonad

PACKAGE_DIR = Path(finmonad.__file__).parent


def imported_roots(source: str) -> set[str]:
    """Top-level names of the absolute imports in `source`."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_every_module_imports_only_the_standard_library():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    allowed = set(sys.stdlib_module_names) | {"finmonad"}
    for path in modules:
        foreign = imported_roots(path.read_text(encoding="utf-8")) - allowed
        assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_import_scan_sees_nested_and_absolute_imports():
    source = "import numpy.linalg\nfrom hypothesis import given\nfrom . import finset\ndef f():\n    import json\n"
    assert imported_roots(source) == {"numpy", "hypothesis", "json"}
