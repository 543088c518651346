"""Every public function, class and method has a caller outside the tests,
and every CSV artifact goes through one writer.

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
    assert {"synthesize", "TestCaseSpec", "input_arity"} <= {node.name for node in defs}


def test_every_public_name_has_a_caller():
    unused = _unused()
    assert not unused, f"public names that only tests reach: {unused}"


def _calls(name: str) -> list[tuple[str, str]]:
    """Each call under `src/probsynth` of a function called ``name``, plain
    or as an attribute, as (file, enclosing function)."""
    found = []

    def walk(node: ast.AST, path: Path, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, path, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    found.append((path.name, function))
            walk(child, path, function)

    for path in SOURCES:
        walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path, "")
    return found


def test_one_csv_writer():
    importers = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "csv" in [alias.name for alias in node.names] + [getattr(node, "module", None)]
    ]
    assert importers == ["cli.py"]
    assert _calls("writer") == [("cli.py", "_write_csv")]
    assert {path for path, _ in _calls("fmt12")} == {"cli.py"}
