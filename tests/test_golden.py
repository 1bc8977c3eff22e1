"""Golden SHA-256 hashes of CLI output.

The hashes were taken from the per-point implementation; any change to the
numerics or the CSV formatting that moves a single bit of output fails here.
The three +-2000 `boundary` hashes were taken again when each closed contour
loop came to be emitted once: the same rows, less the one-point polylines
that used to repeat each further root of a loop.
The two `point` hashes with `--normalized-negativity` or a signed zero, and
the local `scan --normalized-negativity` hash, were taken from the
record-based formatter before rows came to be formatted from the core's
columns.
The +-2000 grid reaches the envelope where Boltzmann weights underflow; both
grids contain the u = 0 and v = 0 tie lines, and both hold roots of all
three boundary quantities.
The exponent-notation grid and the subnormal `point` were pinned before
floats came to be formatted from vectorised shortest round-trip digits:
its coordinates lie on both sides of repr's switch to exponent notation
at 1e-4, and its `chsh` column is written in exponent notation.
The pinned bits are those of numpy's AVX-512 `exp`, which numpy 2.x takes
on a CPU that has AVX-512.  NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
AVX512_SPR" makes numpy call libm's `exp`, as on a CPU without AVX-512,
which differs from it in the last bit at about 3% of inputs; tier-1 then
fails 8 tests: here the `boundary` chsh and fidelity hashes on the local
grid and the four cases of `test_rows_are_unchanged_across_block_edges`,
`test_scan.py::TestTraceBoundary::test_saddle_cell_pairs_sides_by_the_centre_sign`,
and `test_core.py::test_exp_of_one_float_is_exp_of_an_array`, whose check
that `math.exp` differs from `np.exp` somewhere fails when both are libm's.
"""
import hashlib

import pytest

from dipolepair import core, scan
from dipolepair.cli import run_cli

ENVELOPE = ["--u", "-2000:2000:41", "--v", "-2000:2000:41"]
LOCAL = ["--u", "-12:12:49", "--v", "-12:12:49"]
TINY = ["--u", "-1e-4:1e-4:5", "--v", "0:1e-300:3"]

GOLDEN = [
    (["scan", *ENVELOPE],
     "14a4a3a56e53a4d8ac6f4abb326af81a01bb7aaed0708732df1dc694e8d4e004"),
    (["scan", *ENVELOPE, "--normalized-negativity"],
     "a6319b5f387b7ada2054003828d738689c540a7f37873075b07d5b81373b4cd6"),
    (["dominant", *ENVELOPE],
     "991216ae8b7e7302ecdd7aa1bab1503054e239c440f883d1a038f23dac856585"),
    (["scan", *LOCAL],
     "db90f0bdbcd0f4fa1c0b224ac4e5a38a9fb41a77f2aa78f6e4bf4ab25142231b"),
    (["scan", *LOCAL, "--normalized-negativity"],
     "eade8893292f8e9ec1d0bf1440f5b91d986b781d0b2b7bd64b7c857e9dafb914"),
    (["dominant", *LOCAL],
     "f8cc79652ebb13760d90b8e7c77f61c1da1cf6130d8e3eb6d964abb1d4a2a31d"),
    (["boundary", "--quantity", "chsh", *ENVELOPE],
     "ede8a024ff0c8dae7b79a8fe8d751ab5eb184a3438fdf7a33b6834453319b0b1"),
    (["boundary", "--quantity", "negativity", *ENVELOPE],
     "3a3db97d522abaa684e1f39f8fddf61954529f8536ba11547891cec6d94c30dc"),
    (["boundary", "--quantity", "fidelity", *ENVELOPE],
     "f1b049c81c5113443788b18f63fe5f9774b14649ffa993a7824fafeb167e58ab"),
    (["boundary", "--quantity", "chsh", *LOCAL],
     "abc4b832249a6ce66fedc05b8049d0e7b116f2a8ef6b3a4aafcba9cb4472ed39"),
    (["boundary", "--quantity", "negativity", *LOCAL],
     "ce79a67fb1b624307173923a577cb204fd224f39a783f4a8bce909d35b92a263"),
    (["boundary", "--quantity", "fidelity", *LOCAL],
     "7bffa1b03359606af32f1c9b75ef1171cc843bf86d7469d4fb3b59da232d2525"),
    (["point", "--u", "3", "--v", "1"],
     "cde15b8ca09c68f0c7865e4bea9eb8a05c9b50eb276a3dffd80a434f999e9ed1"),
    (["point", "--u", "3", "--v", "1", "--normalized-negativity"],
     "f7d6f8507a4b28b0e4d7be964ea774335cc6610901f73fa5a6ac2ec85a4707c0"),
    # the signed zero of u must survive into the row
    (["point", "--u", "-0.0", "--v", "0"],
     "9bf15e89a559394f8d4ef48e744da9cbd43dedb05e565d65a719f227078a9108"),
    (["scan", *TINY],
     "3260c9638c25f8f0d31bcf7ebd7366a6184ba08b0d61de613981c59cacc4e8ea"),
    (["dominant", *TINY],
     "dbfe3caf780741774cd85169125a19310ce4f01f053c13fb5ab518d496e46fb4"),
    # subnormal coordinates
    (["point", "--u", "5e-324", "--v", "-1e-310"],
     "c9dd601a04eaf4855351b2d93680b174f91c847e16fa6d85dea7386d28b1e91b"),
]


def _digest(argv, capsys):
    assert run_cli(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_cli_output_hash(argv, digest, capsys):
    assert _digest(argv, capsys) == digest


# blocks of 7 points split each 49-point row evenly; blocks of 11 put block
# edges inside rows and leave a last block of 3 points; slices of 4 rows
# split each block of 11 into 3; slices of 50 rows split the one 2401-point
# block into 49 slices, with slice edges inside rows
@pytest.mark.parametrize("block_points, slice_rows",
                         [(7, scan.SLICE_ROWS), (11, scan.SLICE_ROWS), (11, 4),
                          (scan.BLOCK_POINTS, 50)],
                         ids=["7", "11", "11-slice4", "slice50"])
def test_rows_are_unchanged_across_block_edges(block_points, slice_rows, monkeypatch,
                                               capsys):
    monkeypatch.setattr(scan, "BLOCK_POINTS", block_points)
    monkeypatch.setattr(scan, "SLICE_ROWS", slice_rows)
    local = [(argv, digest) for argv, digest in GOLDEN if LOCAL[1] in argv]
    assert len(local) == 6  # scan, scan --normalized-negativity, dominant, 3 boundary
    for argv, digest in local:
        assert _digest(argv, capsys) == digest, argv


def _no_record(*args, **kwargs):
    raise AssertionError("the CLI built a ScanRecord")


def test_cli_rows_build_no_scan_record(monkeypatch, capsys):
    monkeypatch.setattr(core, "ScanRecord", _no_record)
    for argv, digest in GOLDEN:
        if argv[0] in ("point", "scan", "dominant"):
            assert _digest(argv, capsys) == digest, argv
