"""Every name a package module imports is used in it or exported by its
__all__, every name in __all__ is bound in the module, and a name is
re-exported only on purpose; an AST scan, since the package carries no
linter configuration."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ncperiods"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


def test_scan_finds_an_unused_import():
    assert unused_imports("import json\nfrom os import path, sep\nprint(sep)\n") == [
        "json (line 1)", "path (line 2)"]
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def top_level_bindings(source: str):
    """(names top-level defs, classes and assignments bind, names top-level
    imports bind, the __all__ list)."""
    defined, imported, exported = set(), set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                exported = ast.literal_eval(node.value)
    return defined, imported, exported


def stale_exports(source: str) -> list:
    """Names listed in __all__ that no top-level statement defines or imports."""
    defined, imported, exported = top_level_bindings(source)
    return sorted(name for name in exported if name not in defined | imported)


def test_scan_finds_a_stale_export():
    source = "import os\nfrom x import y as z\ndef f(): pass\nclass C: pass\nN: int = 1\n"
    assert stale_exports(source + "__all__ = ['os', 'z', 'f', 'C', 'N']\n") == []
    assert stale_exports(source + "__all__ = ['f', 'gone', 'y']\n") == ["gone", "y"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_bound(path):
    assert stale_exports(path.read_text()) == []


# names a module lists in __all__ but binds only by importing them, each with
# the reason it is kept; any other such name is a second import path
REEXPORTS = {
    ("cocycle.py", "j_rows_direct"): "perfbench traces and calls it as cocycle.j_rows_direct",
    ("reconstruct.py", "psi_evaluator"): "perfbench traces and calls it as reconstruct.psi_evaluator",
}


def reexports(source: str) -> list:
    """Names listed in __all__ that the module binds only by importing them."""
    defined, imported, exported = top_level_bindings(source)
    return sorted(name for name in exported if name in imported - defined)


def test_scan_finds_a_reexport():
    source = "from x import y, z\ndef f(): pass\nN = 1\nz = 2\n"
    assert reexports(source + "__all__ = ['f', 'N', 'z']\n") == []
    assert reexports(source + "__all__ = ['f', 'y', 'gone']\n") == ["y"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_reexports_are_allowlisted(path):
    assert [name for name in reexports(path.read_text())
            if (path.name, name) not in REEXPORTS] == []


def test_reexport_allowlist_is_current():
    sources = {p.name: p.read_text() for p in MODULES}
    assert [key for key in REEXPORTS if key[1] not in reexports(sources[key[0]])] == []


def test_package_binds_only_clear_caches():
    """Callers import from the modules; the package itself is one import path."""
    defined, imported, exported = top_level_bindings((SRC / "__init__.py").read_text())
    assert (defined, imported, exported) == (set(), {"clear_caches"}, [])
