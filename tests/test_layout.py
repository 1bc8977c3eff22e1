"""Layout of the package: the production import path stays free of the
definition-level oracles, the array core and the scans import nothing of
the scalar route, no module carries an unused import, and the public
namespace resolves.

Standard library only, so the checks run wherever the test suite does.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dipolepair

PACKAGE = Path(dipolepair.__file__).resolve().parent
ORACLE_MODULES = {"dipolepair.reference", "dipolepair.linalg"}


def loaded_after(statement: str) -> set[str]:
    """Names of the dipolepair modules a fresh interpreter holds after
    running `statement`."""
    code = (f"import sys; {statement}; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'dipolepair'))")
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    return set(done.stdout.split())


@pytest.mark.parametrize("statement", ["import dipolepair.cli", "import dipolepair"])
def test_production_imports_leave_the_oracles_unloaded(statement):
    loaded = loaded_after(statement)
    assert "dipolepair.scan" in loaded
    assert not loaded & ORACLE_MODULES


def unused_imports(source: str) -> list[str]:
    """Top-level imported names that nothing in the module reads; names
    listed in `__all__` count as read."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_an_unused_name():
    source = "import math\nimport numpy as np\nfrom .x import a, b\n__all__ = ['b']\nnp.ones(a)\n"
    assert unused_imports(source) == ["math (line 1)"]


def imported_names(source: str) -> set[str]:
    """Every name a module imports, at any depth."""
    return {alias.name.split(".")[-1] for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


# the scalar route through the validating dataclasses; the array core is the
# one production path, and `reference.scalar_record` keeps the scalar one
SCALAR_ROUTE = {"spectrum", "SpectralData", "CorrelationTriple", "chsh_from_correlations",
                "negativity_bell_diagonal", "best_fidelity"}


@pytest.mark.parametrize("module", ["core.py", "scan.py"])
def test_array_path_stays_off_the_scalar_route(module):
    assert imported_names((PACKAGE / module).read_text()) & SCALAR_ROUTE == set()


def test_every_exported_name_resolves():
    names = dipolepair.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(dipolepair, name)]
    assert missing == []
