"""Layout of the package: the production import path loads `core`, `scan`
and the CLI and nothing else, so it stays free of the definition-level
oracles, and `shortest`, whose tables are built as it loads, loads when a
run formats floats with it, which a `boundary` run does not, and folds no
constant wide enough to poll for signals; each production module's
load-time imports are pinned; no module or test file carries an
unused import; only `core` names the stability limit; the public
namespace resolves; and the README's library example runs.

Standard library only, so the checks run wherever the test suite does.
"""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dipolepair

PACKAGE = Path(dipolepair.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
# production is core, scan, shortest and the CLI; `reference` holds the
# oracles, and `shortest` loads with the first block a run formats
LOADED = {
    "import dipolepair": {"dipolepair", "dipolepair.core", "dipolepair.scan"},
    "import dipolepair.cli": {"dipolepair", "dipolepair.cli", "dipolepair.core",
                              "dipolepair.scan"},
}


def fresh_output(code: str) -> list[str]:
    """The words a fresh interpreter prints running `code`."""
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    return done.stdout.split()


def loaded_after(statement: str) -> set[str]:
    """Names of the dipolepair modules a fresh interpreter holds after
    running `statement`."""
    return set(fresh_output(f"import sys; {statement}; print(*sorted(m for m in sys.modules "
                            "if m.split('.')[0] == 'dipolepair'))"))


@pytest.mark.parametrize("statement", ["import dipolepair.cli", "import dipolepair"])
def test_production_imports_leave_the_oracles_unloaded(statement):
    assert loaded_after(statement) == LOADED[statement]


@pytest.mark.parametrize("command, formats", [
    (["scan", "--u", "0:1:3", "--v", "0:1:3"], True),
    (["dominant", "--u", "0:1:3", "--v", "0:1:3"], True),
    (["point", "--u", "3", "--v", "1"], True),
    (["boundary", "--quantity", "negativity", "--u", "-10:10:21", "--v", "-10:10:21"], False),
], ids=["scan", "dominant", "point", "boundary"])
def test_shortest_loads_only_where_floats_are_formatted(command, formats, tmp_path):
    # stdout goes to a file, since `point` has no --out
    out = tmp_path / "out.csv"
    loaded = loaded_after(f"sys.stdout = open({str(out)!r}, 'w'); from dipolepair.cli import "
                          f"run_cli; assert run_cli({command!r}) == 0; sys.stdout.close(); "
                          "sys.stdout = sys.__stdout__")
    assert len(out.read_text().splitlines()) > 1  # rows beside the header
    assert ("dipolepair.shortest" in loaded) is formats


def test_shortest_folds_no_wide_constant_product():
    # `shortest` loads after `cli.main` installs its SIGINT and SIGTERM
    # handlers, and is compiled then when no bytecode is cached.  CPython's
    # constant folding of a product or power beyond one 30-bit digit polls
    # for signals and drops any exception but KeyboardInterrupt, so a
    # signal landing there would be lost and the run would not stop
    tree = ast.parse((PACKAGE / "shortest.py").read_text())
    wide = [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Pow))
            and isinstance(node.left, ast.Constant) and isinstance(node.right, ast.Constant)
            and abs(eval(compile(ast.Expression(node), "", "eval"))) >= 2 ** 30]
    assert wide == []


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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_an_unused_name():
    source = "import math\nimport numpy as np\nfrom .x import a, b\n__all__ = ['b']\nnp.ones(a)\n"
    assert unused_imports(source) == ["math (line 1)"]


def names_in(source: str) -> set[str]:
    """Every identifier a module reads, binds, imports or takes as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_only_core_names_the_coupling_limit():
    # every other module checks couplings through `core`; `__init__` re-exports the constant
    naming = [p.name for p in sorted(PACKAGE.glob("*.py"))
              if "COUPLING_LIMIT" in names_in(p.read_text())]
    assert naming == ["__init__.py", "core.py"]


def test_only_core_reads_numbers():
    # every other module reads outside numbers through `core.floats`
    naming = [p.name for p in sorted(PACKAGE.glob("*.py"))
              if "errstate" in names_in(p.read_text())]
    assert naming == ["core.py"]


# the absolute imports each production module runs when it loads, by top
# package; a new one slows `import dipolepair.cli` and has to be added here
LOAD_TIME_IMPORTS = {
    "__init__.py": set(),
    "__main__.py": set(),
    "cli.py": {"argparse", "os", "sys", "typing"},
    "core.py": {"dataclasses", "enum", "math", "numpy", "reprlib", "typing"},
    "scan.py": {"dataclasses", "enum", "numbers", "numpy", "reprlib", "typing"},
    "shortest.py": {"numpy"},
}


def load_time_imports(source: str) -> set[str]:
    """Top packages of the absolute imports in a module's top-level
    statements, `__future__` aside."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module != "__future__":
            found.add(node.module.split(".")[0])
    return found


def test_production_load_time_imports_are_pinned():
    # `reference` holds the oracles, which production does not load
    found = {p.name: load_time_imports(p.read_text())
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "reference.py"}
    assert found == LOAD_TIME_IMPORTS


def test_every_exported_name_resolves():
    names = dipolepair.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(dipolepair, name)]
    assert missing == []


def test_readme_library_example_runs():
    readme = (TESTS.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
