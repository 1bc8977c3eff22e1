"""Golden SHA-256 hashes of CLI output.

The hashes were taken from the per-point implementation; any change to the
numerics or the CSV formatting that moves a single bit of output fails here.
The three +-2000 `boundary` hashes were taken again when each closed contour
loop came to be emitted once: the same rows, less the one-point polylines
that used to repeat each further root of a loop.
The +-2000 grid reaches the envelope where Boltzmann weights underflow; both
grids contain the u = 0 and v = 0 tie lines, and both hold roots of all
three boundary quantities.
"""
import hashlib

import pytest

from dipolepair.cli import run_cli

ENVELOPE = ["--u", "-2000:2000:41", "--v", "-2000:2000:41"]
LOCAL = ["--u", "-12:12:49", "--v", "-12:12:49"]

GOLDEN = [
    (["scan", *ENVELOPE],
     "14a4a3a56e53a4d8ac6f4abb326af81a01bb7aaed0708732df1dc694e8d4e004"),
    (["scan", *ENVELOPE, "--normalized-negativity"],
     "a6319b5f387b7ada2054003828d738689c540a7f37873075b07d5b81373b4cd6"),
    (["dominant", *ENVELOPE],
     "991216ae8b7e7302ecdd7aa1bab1503054e239c440f883d1a038f23dac856585"),
    (["scan", *LOCAL],
     "db90f0bdbcd0f4fa1c0b224ac4e5a38a9fb41a77f2aa78f6e4bf4ab25142231b"),
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
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_cli_output_hash(argv, digest, capsys):
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
