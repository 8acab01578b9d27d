import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "scripts", "perfbench")


def _third_party_imports() -> dict[str, list[str]]:
    """Top-level names imported from outside the standard library and this
    checkout, each with the files that import it."""
    found: dict[str, list[str]] = {}
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            local = {p.stem for p in path.parent.glob("*.py")}
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    top = name.split(".")[0]
                    if (top in sys.stdlib_module_names or top in local
                            or top == "bisq"):
                        continue
                    found.setdefault(top, []).append(
                        str(path.relative_to(ROOT)))
    return found


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    specs = (project["dependencies"]
             + project["optional-dependencies"]["test"])
    declared = {re.match(r"[A-Za-z0-9_.\-]+", spec).group(0).lower()
                for spec in specs}
    imported = _third_party_imports()
    assert declared == {"numpy", "pytest", "hypothesis", "scipy"}
    assert set(imported) == declared, imported


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imports_in(scope):
    """The import statements of a module or function, leaving out those
    of the functions defined in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _unread_imports(path: Path) -> list[str]:
    """"file:line name" for each name an import binds that no name in the
    importing module or function reads."""
    tree = ast.parse(path.read_text(), str(path))
    unread = []
    for scope in [tree, *(node for node in ast.walk(tree)
                          if isinstance(node, _FUNCTIONS))]:
        read = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name)}
        for node in _imports_in(scope):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unread.append(f"{path.name}:{node.lineno} {name}")
    return unread


def test_every_import_is_read():
    # no linter ships with the toolchain; __init__ imports to re-export
    unread = [entry for path in sorted((ROOT / "src" / "bisq").glob("*.py"))
              if path.name != "__init__.py"
              for entry in _unread_imports(path)]
    assert unread == []
