"""repr of whole float64 arrays: `reprs(x)` gives the bytes of repr(x[i])
for every entry from numpy uint64 arithmetic, not one Python call each.

Digits: Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020) finds the shortest decimal that rounds to the double, and the closest
of that length, from three products with a 126-bit power of ten.  Layout:
repr's fixed notation, which repr uses while the decimal point position
lies in (-4, 16].  Exponent notation, subnormals, infinities and nan are
left to `repr` itself.  The tables are built on first use.
"""
from __future__ import annotations

import functools

import numpy as np

WIDTH = 24  # the longest repr of a double: '-1.2345678901234567e-308'

_U = np.uint64
_M32 = _U(0xFFFF_FFFF)
_M63 = _U((1 << 63) - 1)
_ONE_BITS = np.array(1.0).view(_U)
_POW10 = np.array([10 ** i for i in range(18)], dtype=_U)
_K_MIN = -292  # smallest power of ten that scales a normal double
# numpy's temporaries for a few thousand values stay in the CPU cache; in
# runs of 16384 values each value costs about 1.5 times more
_RUN = 1 << 12


@functools.cache
def _pow10_table() -> np.ndarray:
    """Rows g1, g1 >> 32, g1 & M32, g0 >> 32, g0 & M32 for e = -292..324,
    where g1 2**63 + g0 = floor(10**e 2**-r) + 1 lies in [2**125, 2**126)."""
    g = np.array([(10 ** max(e, 0) << max(-r, 0)) // (10 ** max(-e, 0) << max(r, 0)) + 1
                  for e in range(_K_MIN, 325)
                  for r in [((e * 1741647) >> 19) - 125]])  # floor(log2 10**e) - 125
    g1, g0 = (g >> 63).astype(_U), (g & ((1 << 63) - 1)).astype(_U)
    return np.stack((g1, g1 >> _U(32), g1 & _M32, g0 >> _U(32), g0 & _M32))


@functools.cache
def _layout_table() -> np.ndarray:
    """Nine rows by code (fraction digits - 1) * 32 + (integer digits - 1)
    * 2 + sign: three words keeping the fraction digits of a right-aligned
    text, three keeping its integer digits, three with its point and sign."""
    code, col = np.arange(20 * 32)[:, None], np.arange(WIDTH)
    dot = (WIDTH - 1) - (code // 32 + 1)
    start = dot - (code // 2 % 16 + 1)
    ff, period, minus = np.array([0xFF, ord("."), ord("-")], np.uint8)
    masks = np.stack(((col > dot) * ff, ((col >= start) & (col < dot)) * ff,
                      (col == dot) * period | ((col == start - 1) & (code % 2 == 1)) * minus))
    return masks.view("<u8").transpose(0, 2, 1).reshape(9, -1)


def _mulhi(a1, a0, b1, b0):
    """High word of (a1 2**32 + a0)(b1 2**32 + b0), from 32-bit limbs."""
    lo, m1, m2 = a0 * b0, a1 * b0, a0 * b1
    mid = (lo >> _U(32)) + (m1 & _M32) + (m2 & _M32)
    return a1 * b1 + (m1 >> _U(32)) + (m2 >> _U(32)) + (mid >> _U(32))


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, e): f 10**e is the shortest decimal that rounds to each positive
    normal double, the closest of that length; f may end in zeros.  Figure
    7 of the paper, with the constants of Java's DoubleToDecimal."""
    exponent = (bits >> _U(52)).astype(np.int64)
    fraction = bits & _U((1 << 52) - 1)
    c = fraction | _U(1 << 52)
    q = exponent - 1075
    # at a power of two the gap below is half the gap above
    irregular = (fraction == 0) & (exponent > 1)
    k = (q * 1262611 - 524031 * irregular) >> 22  # floor(log10 of the gap)
    h = (q + ((-k * 1741647) >> 19) + 2).astype(_U)
    # g, one row per value, broadcast against the three products below
    g1, g1_hi, g1_lo, g0_hi, g0_lo = np.take(_pow10_table(), -k - _K_MIN, axis=1)[:, None]
    # the value and the ends of its rounding interval, in 10**k / 4, rounded
    # to odd: the last bit says whether the product was inexact
    cb = c << _U(2)
    cp = np.stack((cb - _U(2) + irregular, cb, cb + _U(2))) << h
    cp1, cp0 = cp >> _U(32), cp & _M32
    z = ((g1 * cp) >> _U(1)) + _mulhi(g0_hi, g0_lo, cp1, cp0)
    vbl, vb, vbr = (_mulhi(g1_hi, g1_lo, cp1, cp0) + (z >> _U(63))) | (
        ((z & _M63) + _M63) >> _U(63))
    odd = c & _U(1)  # an odd significand excludes the interval's ends
    lower, upper = vbl + odd, vbr - odd
    s = vb >> _U(2)
    sp = s // _U(10)
    # one digit fewer: sp or sp + 1 at 10**(k + 1), if just one is inside
    upin = lower <= sp * _U(40)
    wpin = sp * _U(40) + _U(40) <= upper
    # else s or s + 1: the one inside, or the closer, or the even one
    uin = lower <= s << _U(2)
    win = (s << _U(2)) + _U(4) <= upper
    up = np.where(uin != win, win, vb + (s & _U(1)) > (s << _U(2)) + _U(2))
    short = upin != wpin
    return np.where(short, sp + wpin, s + up), k + short


@functools.cache
def _ascii4() -> np.ndarray:
    """The 4 zero-padded digits of 0..9999 as little-endian bytes."""
    n = np.arange(10000, dtype=np.uint16)
    digits = np.stack((n // 1000, n // 100 % 10, n // 10 % 10, n % 10), axis=1).astype(np.uint8)
    return (digits + np.uint8(ord("0"))).view("<u4").ravel().astype(_U)


def reprs(x: np.ndarray) -> np.ndarray:
    """(N, WIDTH) uint8: row i holds repr(float(x[i])) right-aligned and
    NUL-padded on the left."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    if x.size > _RUN:
        return np.concatenate([reprs(run) for run in np.array_split(x, -(-x.size // _RUN))])
    bits = x.view(_U)
    magnitude = bits & _M63
    normal = (magnitude >= _U(1 << 52)) & (magnitude < _U(0x7FF << 52))
    f, e = _shortest(np.where(normal, magnitude, _ONE_BITS))
    # numpy's // by a constant is several times faster than its %
    zero_ended = np.flatnonzero(f // _U(10) * _U(10) == f)
    while zero_ended.size:
        f[zero_ended] //= _U(10)
        e[zero_ended] += 1
        last = f[zero_ended]
        zero_ended = zero_ended[last // _U(10) * _U(10) == last]
    point = e + np.searchsorted(_POW10, f, side="right")  # digits before the point
    fixed = normal & (point > -4) & (point <= 16)  # else repr writes an exponent
    if not fixed.all():  # zeros become "0.0"; `repr` writes the others below
        f[~fixed], e[~fixed], point[~fixed] = 0, 0, 1
    fraction = np.maximum(-e, 1)
    f = f * _POW10[np.maximum(e + 1, 0)]  # an integer's ".0" as one more digit
    # the 24 zero-padded digits of f: '0' * 7 and its top digit, two words of
    # 8 digits from the 4-digit table, and a spare word
    digits = np.zeros((4, x.size), _U)
    top = f // _U(10 ** 8)
    digits[0] = _U(0x3030303030303030) + (top // _U(10 ** 8) << _U(56))
    eights = np.stack((top - top // _U(10 ** 8) * _U(10 ** 8), f - top * _U(10 ** 8)))
    fours = eights // _U(10000)
    digits[1:3] = _ascii4()[fours] | _ascii4()[eights - fours * _U(10000)] << _U(32)
    code = (fraction - 1) * 32 + (np.maximum(point, 1) - 1) * 2 + (bits >> _U(63)).astype(int)
    keep_fraction, keep_integer, marks = np.take(_layout_table(), code, axis=1).reshape(3, 3, -1)
    # the integer digits sit one byte left of their place in `digits`
    words = (digits[:3] & keep_fraction) | marks | (
        ((digits[:3] >> _U(8)) | (digits[1:] << _U(56))) & keep_integer)
    text = np.ascontiguousarray(words.T, dtype="<u8").view(np.uint8)
    rest = np.flatnonzero(~fixed & (magnitude != _U(0)))
    if rest.size:
        text[rest] = _by_repr(x[rest])
    return text


def _by_repr(x: np.ndarray) -> np.ndarray:
    """`reprs(x)` from one `repr` call per value, writable as the array
    route's result is."""
    return np.frombuffer(bytearray(b"".join(repr(v).encode().rjust(WIDTH, b"\0")
                                            for v in x.tolist())), np.uint8).reshape(-1, WIDTH)
