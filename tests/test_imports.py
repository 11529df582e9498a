"""Every name a package module imports is used in that module, and the
unchecked constructor `_from_clean` stays inside `laurent`."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "clusterforge"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":  # from __future__ import annotations
                    yield node.lineno, name


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "laurent.py", "closedform.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"line {line}: {name}" for line, name in _imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_only_laurent_imports_from_clean():
    # every other module builds polynomials through the checking constructor
    # or LaurentPolynomial's own arithmetic
    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if any(name == "_from_clean" for _, name in
                        _imported_names(ast.parse(path.read_text(encoding="utf-8"))))]
    assert importers == []
