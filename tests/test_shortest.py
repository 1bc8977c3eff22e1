"""`shortest.reprs` writes the bytes of repr for every double: on hypothesis
floats, on seeded random bit patterns, on integers and powers of two and
ten, and at the switch points of repr's layout (exponent notation below
1e-4 and from 1e16, which `reprs` leaves to repr, subnormals, the largest
double).

Runs are derandomized by the profile in conftest.py, so the suite draws the
same examples every time.
The same check over 2 * 10**7 patterns, in batches of a million: ten in
the binades of fixed notation, then ten of raw bit patterns, which reach
every binade:

    PYTHONPATH=src:tests python -c "import test_shortest as t
    for seed in range(10): t.check_bit_patterns(seed, 10**6, fixed=True)
    for seed in range(10, 20): t.check_bit_patterns(seed, 10**6, fixed=False)"
"""
import numpy as np
from hypothesis import example, given, strategies as st

from dipolepair.shortest import WIDTH, reprs

EDGES = [0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 9.999999999999999e-05, 1e-04,
         1e16, 9999999999999998.0, 1.7976931348623157e308, 2000.0, 1e99, 1e100, 1e-100]


def assert_reprs(x: np.ndarray) -> None:
    """`reprs` writes repr's bytes for x."""
    got = reprs(x)
    want = np.array([repr(v).encode().rjust(WIDTH, b"\0") for v in x.tolist()])
    bad = np.flatnonzero(np.any(got != want.view(np.uint8).reshape(-1, WIDTH), axis=1))
    assert bad.size == 0, [(repr(x[i]), bytes(got[i]).lstrip(b"\0")) for i in bad[:5]]


def check_bit_patterns(seed: int, size: int, fixed: bool) -> None:
    """`size` random finite doubles from seeded uint64 bit patterns; with
    `fixed`, the exponent field is redrawn among the binades that repr
    writes in fixed notation, where `reprs` computes the digits itself."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2 ** 64, size=size, dtype=np.uint64)
    if fixed:
        exponent = rng.integers(1023 - 14, 1023 + 54, size=size, dtype=np.uint64)
        bits = (bits & np.uint64(~(0x7FF << 52) & (2 ** 64 - 1))) | exponent << np.uint64(52)
    x = bits.view(np.float64)
    assert_reprs(x[np.isfinite(x)])


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
@example(EDGES)
@example([-x for x in EDGES])
def test_reprs_equal_repr(xs):
    assert_reprs(np.array(xs))


def test_reprs_equal_repr_on_random_bit_patterns():
    # raw patterns are 99% exponent notation, left to repr; the second
    # batch draws its exponents from the binades repr writes in fixed notation
    check_bit_patterns(seed=1, size=10 ** 5, fixed=False)
    check_bit_patterns(seed=2, size=10 ** 5, fixed=True)


def test_reprs_equal_repr_on_integers_and_powers():
    powers = [2.0 ** k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)]
    assert_reprs(np.array(powers + [-x for x in powers] + list(range(-3000, 3001)), dtype=float))


def test_reprs_of_nothing_and_of_non_finite_values():
    assert reprs(np.array([])).shape == (0, WIDTH)
    assert_reprs(np.array([np.nan, np.inf, -np.inf, -5e-324, 1e-310]))

