"""Every name a package module imports is used in that module, the
unchecked constructor `_from_clean` stays inside `laurent`, no module
imports `fractions`, and the package runs on the standard library alone."""

import ast
import os
import subprocess
import sys
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


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module.split(".")[0]


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


def test_no_module_does_rational_arithmetic():
    # every sequence-sum weight is an integer binomial, so no module needs fractions
    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if "fractions" in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))]
    assert importers == []


def test_package_needs_only_the_standard_library():
    # a fresh interpreter, so that nothing the test run imported hides a
    # dependency: the package and one CLI call add no module from outside it
    # and the standard library
    program = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "import clusterforge.cli",
        "clusterforge.cli.main(['fpoly', '--family', 'kr', '--params', 'r=2',"
        " '--seq', '1,2,1', '--coeff', 'y1^3*y2'])",
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}",
        "print(sorted(added - set(sys.stdlib_module_names) - {'clusterforge'}))",
    ])
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=True)
    assert result.stdout.splitlines() == ["2", "[]"]
