"""Runtime dependencies stay within the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "probsynth").glob("*.py"))


def _imported_modules(path: Path) -> set[str]:
    """Top-level names of the modules a file imports by absolute name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_sources_found():
    assert len(SOURCES) > 1


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_stdlib(path):
    outside = _imported_modules(path) - sys.stdlib_module_names - {"probsynth"}
    assert not outside, f"{path.name} imports non-stdlib modules {sorted(outside)}"
