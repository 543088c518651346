"""Every public function, class and method has a caller outside the tests.

A public name counts as used when `src/` or `bench/` refers to it outside
its own definition (imports and re-exports do not count), or when a code
span or code block of README.md names it. Dunder methods are called by
the language, so they are not checked.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "probsynth").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(path: Path) -> tuple[list, list]:
    """The file's public definitions, and every name it refers to, each
    with the definitions that enclose the reference."""
    defs: list = []
    refs: list = []

    def walk(node: ast.AST, enclosing: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                if not child.name.startswith("_"):
                    defs.append(child)
                walk(child, enclosing + (child,))
                continue
            if isinstance(child, ast.Name):
                refs.append((child.id, enclosing))
            elif isinstance(child, ast.Attribute):
                refs.append((child.attr, enclosing))
            walk(child, enclosing)

    walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), ())
    return defs, refs


def _readme_names() -> set[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.DOTALL)
    return {name for span in code for name in re.findall(r"[A-Za-z_]\w*", span)}


def _unused() -> list[str]:
    defs: list = []
    refs: list = []
    for path in SOURCES:
        file_defs, file_refs = _names(path)
        defs += [(f"{path.name}:{node.lineno} {node.name}", node) for node in file_defs]
        refs += file_refs
    elsewhere = _readme_names() | {name for path in BENCH for name, _ in _names(path)[1]}
    return [
        place
        for place, node in defs
        if node.name not in elsewhere
        and not any(name == node.name and node not in enclosing for name, enclosing in refs)
    ]


def test_sources_define_public_names():
    defs, _ = _names(ROOT / "src" / "probsynth" / "synth.py")
    assert {"synthesize", "TestCaseSpec", "to_json"} <= {node.name for node in defs}


def test_every_public_name_has_a_caller():
    unused = _unused()
    assert not unused, f"public names that only tests reach: {unused}"
