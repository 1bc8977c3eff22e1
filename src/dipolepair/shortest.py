"""repr of whole float64 arrays: `reprs(x)` gives the bytes of repr(x[i])
for every entry from numpy uint64 arithmetic, not one Python call each.

Digits: Dragonbox (J. Jeon, "Dragonbox: A New Floating-Point
Binary-to-Decimal Conversion Algorithm", 2020) finds the shortest decimal
that rounds to the double, and the closest of that length, from one
product of the upper end of its rounding interval with a power of ten; a
second product, of the lower end or the value, decides the rare ties.
Layout: repr's fixed notation, which repr uses for magnitudes from 1e-4
up to 1e16.  Only those doubles get digits here: in their 68 binades the
powers of ten the algorithm needs, 10**2..10**22, are exact in 64 bits.
Exponent notation, subnormals, infinities and nan are left to `repr`
itself.  The tables are module data, built as the module loads.
"""
from __future__ import annotations

import numpy as np

WIDTH = 24  # the longest repr of a double: '-1.2345678901234567e-308'

_U = np.uint64
_M32 = _U(0xFFFF_FFFF)
_M52 = _U((1 << 52) - 1)
_M63 = _U((1 << 63) - 1)
# the magnitudes that repr writes in fixed notation, as bits: [1e-4, 1e16)
_FIXED_FROM, _FIXED_TO = np.array([1e-4, 1e16]).view(_U)
# their exponent fields, 1009 and 1076, bound the binades that get digits
_FIELD_MIN, _FIELD_MAX = int(_FIXED_FROM) >> 52, int(_FIXED_TO) >> 52
# digits for the other values, which are overwritten: a double whose digits
# take the common path and end in no zero
_STAND_IN = np.array(1.0000000000000002).view(_U)
_POW10 = np.array([10 ** i for i in range(18)], dtype=_U)
# numpy's temporaries for a few thousand values stay in the CPU cache; in
# runs of 16384 values each value costs about 1.5 times more
_RUN = 1 << 12

# By exponent field, where a double is f 2**e with 2**52 <= f < 2**53, and
# Dragonbox's k = 2 - floor(log10 2**e): the width of the rounding interval
# times 10**k in units of 2**-54, 10**k 2**(e + 54), an integer below 2**64
# here, and its 32-bit limbs; and 3 - k, the decimal exponent of a result
# with one digit dropped
_E_K = [(e, 2 - ((e * 315653) >> 20)) for e in range(_FIELD_MIN - 1075, _FIELD_MAX - 1074)]
_INTERVAL = np.array([(10 ** k << (66 + e)) >> 12 for e, k in _E_K], dtype=_U)
_INTERVAL_HI, _INTERVAL_LO = _INTERVAL >> _U(32), _INTERVAL & _M32
_SHORT_EXPONENT = np.array([3 - k for _, k in _E_K], dtype=np.int64)

# Nine rows by code (fraction digits - 1) * 32 + (integer digits - 1) * 2 +
# sign: three words keeping the fraction digits of a right-aligned text,
# three keeping its integer digits, three with its point and sign
_CODE, _COLUMN = np.arange(20 * 32)[:, None], np.arange(WIDTH)
_DOT = (WIDTH - 1) - (_CODE // 32 + 1)  # the column of the point
_START = _DOT - (_CODE // 2 % 16 + 1)  # the column of the first integer digit
_FF, _PERIOD, _MINUS = np.array([0xFF, ord("."), ord("-")], np.uint8)
_LAYOUT = np.stack((
    (_COLUMN > _DOT) * _FF, ((_COLUMN >= _START) & (_COLUMN < _DOT)) * _FF,
    (_COLUMN == _DOT) * _PERIOD | ((_COLUMN == _START - 1) & (_CODE % 2 == 1)) * _MINUS,
)).view("<u8").transpose(0, 2, 1).reshape(9, -1)
# the 4 zero-padded digits of 0..9999 as little-endian bytes: byte i of
# entry n is the digit of n that counts 10**(3 - i)
_ASCII4 = sum(np.ix_(*[np.arange(ord("0"), ord("9") + 1, dtype=_U) << _U(8 * i)
                       for i in range(4)])).ravel()


def _mulhi(a, b1, b0):
    """High word of a (b1 2**32 + b0), from 32-bit limbs."""
    a1, a0 = a >> _U(32), a & _M32
    lo, m1, m2 = a0 * b0, a1 * b0, a0 * b1
    mid = (lo >> _U(32)) + (m1 & _M32) + (m2 & _M32)
    return a1 * b1 + (m1 >> _U(32)) + (m2 >> _U(32)) + (mid >> _U(32))


def _parity(two_f, binade):
    """Dragonbox's parity product: whether the integer part of two_f 2**(e
    - 1) 10**k is odd, and whether it is an integer."""
    low = two_f * _INTERVAL[binade]
    return (low >> _U(55)) & _U(1) == _U(1), low << _U(9) == _U(0)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, e, point): f 10**e is the shortest decimal that rounds to each
    positive double in [1e-4, 1e16), the closest of that length, and f ends
    in no zero; point is e plus the digits of f.  Dragonbox's case of
    round to nearest, ties to even; its other steps do not occur in these
    binades: an end of the interval is an integer only from 2**50,
    and never there a multiple of 10**3; and at a power of two the shorter
    interval below gives the same digits, as the tests check for each."""
    binade = (bits >> _U(52)) - _U(_FIELD_MIN)
    g1, g0 = np.take(_INTERVAL_HI, binade), np.take(_INTERVAL_LO, binade)
    fraction = bits & _M52
    # zi: the interval's upper end (2 f + 1) 2**(e - 1) times 10**k, rounded
    # down; with the multiple of 10**3 below it inside, one digit goes
    zi = _mulhi((fraction << _U(10)) | _U(1 << 62 | 1 << 9), g1, g0)
    s = zi // _U(1000)
    r = zi - s * _U(1000)
    delta = g1 >> _U(22)  # the interval's width times 10**k, rounded down
    small = r > delta
    # rare: r == delta, where the multiple and the lower end have one
    # integer part or the lower end's is one less, odd, with the multiple
    # inside
    tie = np.flatnonzero(r == delta)
    small[tie] = ~_parity(((fraction[tie] | _U(1 << 52)) << _U(1)) - _U(1), binade[tie])[0]
    # else the value rounded to a multiple of 100: zi - delta / 2 + 50
    dist = r - (delta >> _U(1)) + _U(50)
    digit = dist // _U(100)
    f = np.where(small, s * _U(10) + digit, s)
    # rare: that rounding is within one of a tie; the value's own parity
    # says which side, and at an exact tie f goes to the even neighbour
    near = np.flatnonzero(small & (digit * _U(100) == dist))
    odd, integer = _parity((fraction[near] | _U(1 << 52)) << _U(1), binade[near])
    f[near] -= (odd != ((dist[near] ^ _U(50)) & _U(1) == _U(1))) | (
        integer & (f[near] & _U(1) == _U(1)))
    e = np.take(_SHORT_EXPONENT, binade) - small
    point = e + 15 + (f >= _POW10[15]) + (f >= _POW10[16])  # f has 15 to 17 digits
    # only a result with one digit dropped can end in zeros; numpy's // by
    # a constant is several times faster than its %
    zero_ended = np.flatnonzero(~small)
    zero_ended = zero_ended[f[zero_ended] // _U(10) * _U(10) == f[zero_ended]]
    while zero_ended.size:
        f[zero_ended] //= _U(10)
        e[zero_ended] += 1
        last = f[zero_ended]
        zero_ended = zero_ended[last // _U(10) * _U(10) == last]
    return f, e, point


def reprs(x: np.ndarray) -> np.ndarray:
    """(N, WIDTH) uint8: row i holds repr(float(x[i])) right-aligned and
    NUL-padded on the left."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    if x.size > _RUN:
        return np.concatenate([reprs(run) for run in np.array_split(x, -(-x.size // _RUN))])
    bits = x.view(_U)
    magnitude = bits & _M63
    fixed = (magnitude >= _FIXED_FROM) & (magnitude < _FIXED_TO)
    f, e, point = _shortest(np.where(fixed, magnitude, _STAND_IN))
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
    digits[1:3] = _ASCII4[fours] | _ASCII4[eights - fours * _U(10000)] << _U(32)
    code = (fraction - 1) * 32 + (np.maximum(point, 1) - 1) * 2 + (bits >> _U(63)).astype(int)
    keep_fraction, keep_integer, marks = np.take(_LAYOUT, code, axis=1).reshape(3, 3, -1)
    # the integer digits sit one byte left of their place in `digits`
    words = (digits[:3] & keep_fraction) | marks | (
        ((digits[:3] >> _U(8)) | (digits[1:] << _U(56))) & keep_integer)
    text = np.ascontiguousarray(words.T, dtype="<u8").view(np.uint8)
    rest = np.flatnonzero(~fixed & (magnitude != _U(0)))
    if rest.size:
        text[rest] = _by_repr(x[rest])
    return text


def _by_repr(x: np.ndarray) -> np.ndarray:
    """`reprs(x)` from one `repr` call per value."""
    return np.frombuffer(b"".join(repr(v).encode().rjust(WIDTH, b"\0")
                                  for v in x.tolist()), np.uint8).reshape(-1, WIDTH)
