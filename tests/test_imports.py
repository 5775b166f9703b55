"""Every module in the package, the tests, the scripts and the benchmark
harness uses each name it imports.

No linter runs on this project, so this scan keeps dead imports out.
"""

import ast
from pathlib import Path

import pytest

import phonoam

PACKAGE_DIR = Path(phonoam.__file__).parent
REPO_DIR = Path(__file__).resolve().parent.parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
SCRIPTS = [p for d in ("tests", "scripts", "perfbench") for p in sorted(REPO_DIR.glob(f"{d}/*.py"))]


def unused_imports(source: str) -> list[str]:
    """Imported names (at any nesting level) that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scanner_finds_an_unused_import():
    src = "import json\nfrom dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(src) == ["field (line 2)", "json (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports_outside_package(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
