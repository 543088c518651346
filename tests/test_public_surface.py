"""Every public function, class and method has a caller outside the tests,
every import is read where it is bound, every CSV artifact goes through
one writer, every output file through one write path, only the CLI
prints, no code downstream of the scopes looks up a unit id, and the
synthesizer opens prefixes only in its search loop.

A public name counts as used when `src/` or `bench/` refers to it outside
its own definition (imports and re-exports do not count), or when a code
span or code block of README.md names it. A method or property counts as
used only through an attribute (`x.name`), since a bare name of the same
spelling is some other variable. Dunder methods are called by the
language, so they are not checked.
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
    """The file's public definitions, each with whether it is a method, and
    every name it refers to, each with whether it is an attribute and the
    definitions that enclose the reference."""
    defs: list = []
    refs: list = []

    def walk(node: ast.AST, enclosing: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                if not child.name.startswith("_"):
                    defs.append((child, bool(enclosing) and isinstance(enclosing[-1], ast.ClassDef)))
                walk(child, enclosing + (child,))
                continue
            if isinstance(child, ast.Name):
                refs.append((child.id, False, enclosing))
            elif isinstance(child, ast.Attribute):
                refs.append((child.attr, True, enclosing))
            walk(child, enclosing)

    walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), ())
    return defs, refs


def _readme_names() -> set[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.DOTALL)
    return {name for span in code for name in re.findall(r"[A-Za-z_]\w*", span)}


def _unused() -> list[str]:
    defs = [
        (f"{path.name}:{node.lineno} {node.name}", node, method)
        for path in SOURCES
        for node, method in _names(path)[0]
    ]
    refs = [ref for path in SOURCES + BENCH for ref in _names(path)[1]]
    readme = _readme_names()
    return [
        place
        for place, node, method in defs
        if node.name not in readme
        and not any(
            name == node.name and (attribute or not method) and node not in enclosing
            for name, attribute, enclosing in refs
        )
    ]


def test_sources_define_public_names():
    found = {
        (node.name, method)
        for name in ("synth.py", "probability.py")
        for node, method in _names(ROOT / "src" / "probsynth" / name)[0]
    }
    assert {("synthesize", False), ("TestCaseSpec", False), ("without_thresholds", True)} <= found


def test_every_public_name_has_a_caller():
    unused = _unused()
    assert not unused, f"public names that only tests reach: {unused}"


def _unread(path: Path) -> list[str]:
    """The names the module imports that nothing in the module reads.
    ``from __future__`` imports change how the module compiles and are
    never read."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = [
        (node.lineno, (alias.asname or alias.name).split(".")[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    return [f"{path.name}:{line} {name}" for line, name in bound if name not in read]


def test_every_import_is_read():
    # The package __init__ imports only to re-export.
    unread = [place for path in SOURCES if path.name != "__init__.py" for place in _unread(path)]
    assert not unread, f"bound but never read: {unread}"


def _calls(name: str) -> list[tuple[str, str]]:
    """Each call under `src/probsynth` of a function called ``name``, plain
    or as an attribute, or of the dotted ``name`` itself (``os.replace``),
    as (file, enclosing function)."""
    found = []

    def walk(node: ast.AST, path: Path, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, path, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if name in (getattr(func, "id", None), getattr(func, "attr", None), ast.unparse(func)):
                    found.append((path.name, function))
            walk(child, path, function)

    for path in SOURCES:
        walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path, "")
    return found


def _importers(module: str) -> list[str]:
    """Each file under `src/probsynth` that imports ``module``, a submodule
    of it or a name from it, once per import statement."""
    return [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and module in [alias.name.split(".")[0] for alias in node.names]
        or isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == module
    ]


def test_one_csv_writer():
    assert _importers("csv") == ["cli.py"]
    assert _calls("writer") == [("cli.py", "_write_csv")]
    assert {path for path, _ in _calls("fmt12")} == {"cli.py"}


def test_only_the_cli_prints():
    # The library returns what it has to report (a raise, or a value such
    # as SubsetFamily.excluded_units) and keeps no logger; the CLI prints.
    assert _importers("logging") == []
    assert {path for path, _ in _calls("print")} == {"cli.py"}
    stderr = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if "stderr" in (getattr(node, "attr", None), getattr(node, "id", None))
    }
    assert stderr == {"cli.py"}


def test_one_write_path():
    # Commands return their outputs; only cli._commit creates, writes and
    # renames files into place.
    for name in ("os.open", "fdopen", "os.replace"):
        assert _calls(name) == [("cli.py", "_commit")], name
    # _commit's os.open, the files commands read, and save_corpus, which
    # bench/workloads.py calls with a path.
    assert _calls("open") == [
        ("cli.py", "_commit"),
        ("corpus.py", "load_corpus"),
        ("corpus.py", "save_corpus"),
        ("subsets.py", "load_family"),
        ("synth.py", "load_test_spec"),
    ]


def test_prefixes_open_only_in_the_search_loop():
    # Each scope's root is pushed onto the heap as an ordinary prefix, so
    # the loop's two mask reads (a leaf parent's, an interior prefix's)
    # are the only places a prefix is opened.
    assert _calls("_and_mask") == [("synth.py", "synthesize")] * 2


def test_ids_become_units_before_scopes():
    # A scope carries its units, so an id is looked up only where units
    # are made (corpus, probability.build_scopes) and where the CLI checks
    # a --family file against its corpus; nothing downstream of
    # build_scopes turns an id back into a unit.
    readers = {
        (path.name, enclosing[-1].name if enclosing else "")
        for path in SOURCES
        for name, _, enclosing in _names(path)[1]
        if name == "unit_by_id"
    }
    outside = {(path, function) for path, function in readers if path not in ("corpus.py", "probability.py")}
    assert outside == {("cli.py", "_load_family_arg")}
