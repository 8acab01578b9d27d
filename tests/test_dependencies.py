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
