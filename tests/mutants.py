"""Mutation gate for the shortcuts that keep output bits or documented
behaviour: each row changes one text of the package, and the tests it
names must fail on the change.

    python tests/mutants.py

It copies `src`, `tests`, `pyproject.toml` and `README.md` to a temporary
directory and checks that the unmutated copy passes every row's tests.
Then it applies each mutant alone and runs `pytest -x -q` on its row's
tests.  It exits 1 and names each mutant that survives, and each row whose
old text does not occur exactly once.  pytest does not collect this file
(its name does not start with `test_`); it takes about 25 s on 2 shared
CPUs.  A change that adds a bit-preserving shortcut adds its row here.

Left out as equivalent: the negativity tie (`>=` and `<` against
SEPARABLE_NEGATIVITY_TOL in `core`), which no input reaches, since for
w_max in [0.5, 1] `w_max - 0.5` is a multiple of 2**-53 and 1e-12 is not;
dropping the `_RUN` split of `reprs` altogether, which changes its speed
but no byte of its output (splitting it wrongly is a row below); and
`bisect_root`'s reads of its end values, `> 0.0` after `== 0.0`, whose
`>=` twins see no zero.
"""
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHORTEST, CORE = "src/dipolepair/shortest.py", "src/dipolepair/core.py"
SCAN, CLI = "src/dipolepair/scan.py", "src/dipolepair/cli.py"
ENVELOPE = "--u -2000:2000:41 --v -2000:2000:41"
TWIN_TESTS = ["tests/test_core.py"]

# (file, old text, new text, why the tests must fail, tests to run)
MUTANTS = [
    (SHORTEST, "tie = np.flatnonzero(r == delta)", "tie = np.flatnonzero(r == delta)[:0]",
     "a tie is decided by the lower end's parity, else a digit goes where it must not",
     ["tests/test_shortest.py"]),
    (SHORTEST, "small[tie] = ~_parity(", "small[tie] = _parity(",
     "an odd lower end at a tie keeps the multiple of 10**3 inside", ["tests/test_shortest.py"]),
    (SHORTEST, "f[near] -= (odd != ((dist[near] ^ _U(50)) & _U(1) == _U(1))) | (",
     "f[near] -= (", "near a tie the value's parity, not the rounded one, picks the digit",
     ["tests/test_shortest.py"]),
    (SHORTEST, "| (\n        integer & (f[near] & _U(1) == _U(1)))", "",
     "an exact tie goes to the even digit", ["tests/test_shortest.py"]),
    (SHORTEST, " + (f >= _POW10[16])", "",
     "f has 15 to 17 digits, so two compares count them", ["tests/test_shortest.py"]),
    (SHORTEST, "(magnitude < _FIXED_TO)", "(magnitude <= _FIXED_TO)",
     "repr writes 1e16 in exponent notation", ["tests/test_shortest.py"]),
    (SHORTEST, "-(-x.size // _RUN)", "x.size // _RUN",
     "a run of more than _RUN values splits into runs of at most _RUN",
     ["tests/test_shortest.py::test_reprs_equal_repr_on_random_bit_patterns"]),
    (SCAN, "(centre >= 0.0)", "(centre > 0.0)",
     "the grid's signs count a zero as positive, and so does a saddle's centre",
     ["tests/test_scan.py::TestTraceBoundary"]),
    (SCAN, "positive = sign >= 0", "positive = sign > 0",
     "a zero at a grid point sides with the positive ones, as at a saddle's centre",
     [f"tests/test_golden.py::test_cli_output_hash[boundary --quantity {q} {ENVELOPE}]"
      for q in ("chsh", "negativity", "fidelity")]),
    (CLI, "if handler is not signal.SIG_IGN:", "if True:",
     "a signal ignored at start stays ignored",
     ["tests/test_cli.py::test_a_signal_ignored_at_start_stays_ignored"]),
    (CLI, "if os.path.exists(tmp):\n            os.unlink(tmp)", "pass",
     "a failed run leaves no temporary file beside --out",
     ["tests/test_cli.py::TestScanCommand::test_failed_scan_keeps_existing_out_file"]),
    (CORE, "label = _PP if pp == w_max else _PM if pm == w_max else _SP if sp == w_max else _SM",
     "label = _SM if sm == w_max else _SP if sp == w_max else _PM if pm == w_max else _PP",
     "the twin's ties fall to the earlier label, as np.argmax's do", TWIN_TESTS),
    (CORE, "return (*(x / z for x in s), 1.0 / z)", "return (*(x / z for x in s), s[0] / z)",
     "the largest weight is 1/z, the weight of the lowest level", TWIN_TESTS),
    (CORE, "s0 = 1.0 if e0 == m else float(_exp(-(e0 - m)))", "s0 = float(_exp(-(e0 - m)))",
     "the twin skips the exponential of the lowest level", TWIN_TESTS),
    (CORE, '_set_u(self, coupling("u", u))\n        _set_v(self, coupling("v", v))',
     '_set_v(self, coupling("v", v))\n        _set_u(self, coupling("u", u))',
     "u is read and checked before v", TWIN_TESTS),
]


def passes(tree: Path, tests: list[str]) -> bool:
    """Whether pytest passes `tests` in the copy at `tree`."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main() -> int:
    failures, killed = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, tree / name)
        rows = []
        for path, old, new, why, tests in MUTANTS:
            count = (tree / path).read_text().count(old)
            if count != 1:
                failures.append(f"{path}: {old!r} occurs {count} times, not once")
            else:
                rows.append((path, old, new, why, tests))
        if not passes(tree, sorted({t for row in MUTANTS for t in row[4]})):
            print("the unmutated copy fails its tests", file=sys.stderr)
            return 1
        for path, old, new, why, tests in rows:
            source = (tree / path).read_text()
            (tree / path).write_text(source.replace(old, new))
            if passes(tree, tests):
                failures.append(f"{path}: {old!r} -> {new!r} survives; {why}")
            else:
                killed += 1
            (tree / path).write_text(source)
            print(".", end="", flush=True)
    print()
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
