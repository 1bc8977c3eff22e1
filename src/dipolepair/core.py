"""Thermal model of two spin-1/2 particles with a dipolar interaction, and
the array core: every reported quantity of the thermal state on arrays of
the couplings.

Everything is parameterized by the dimensionless couplings
(u, v) = (Delta/kT, eps/kT).  In units of k_B T the interaction reads

    H = (1/6) [[ u, 0, 0, 3v],
               [ 0, -u, -u, 0],
               [ 0, -u, -u, 0],
               [3v, 0, 0,  u]]

whose eigenstates are the four Bell states with energies

    E(Phi+) = (u + 3v)/6,  E(Phi-) = (u - 3v)/6,  E(Psi+) = -u/3,  E(Psi-) = 0.

The thermal state is therefore Bell diagonal, and each quantity is a closed
form of its four Boltzmann weights w_a:

    c1, c2, c3  diagonal spin-spin correlations, signed sums of the weights
    chsh        2 sqrt of the two largest c_i^2 (Horodecki, PLA 200, 340, 1995)
    negativity  max(0, w_max - 1/2)
    fidelity    (1 + 2 w_max) / 3

CHSH values above 2 certify nonlocality, and 2 sqrt 2 is the quantum
ceiling.  Negativity is the trace-norm measure (||rho^{T_A}||_1 - 1)/2, the
absolute sum of the negative partial-transpose eigenvalues; those are
{1/2 - w_a} for a Bell-diagonal state.  A maximally entangled state scores
1/2 on this scale; presentation layers may double it so the ceiling reads 1.
Teleportation through the thermal resource with measurement seed
K0 = |k0><k0| maps an input qubit to

    rho_out = sum_mu Tr(K_mu rho) sigma_mu rho_in sigma_mu,
    K_mu = (sigma_mu x I) K0 (sigma_mu x I),

a Pauli channel whose flip probabilities relabel the Bell weights.  Averaged
over the Bloch sphere the fidelity is (1 + 2 w_k0)/3, so the best seed beats
the classical record 2/3 exactly when w_max exceeds 1/2.

Only the inputs are checked at runtime: finite and within the stability
limit.  `floats` reads every coupling and bracket the library takes, and
`coupling` words each coupling error, so a rule has one text on every
route.  For such inputs the closed forms guarantee the rest (weights a
probability vector that never rises with energy, correlations inside the
Bell tetrahedron, CHSH in [0, 2 sqrt 2], fidelity in [1/3, 1], Psi-minus
never dominant); `tests/test_properties.py` asserts those facts over the
whole envelope.  `evaluate` serves arrays of points as 1-D columns: three
energies, their least value with Psi-minus's 0.0, four exponentials, the
partition sum z and the weights, with no (N, 4) matrix and no search.  Each
formula is written once, in a helper: `_weights`, `_chsh` and
`_fidelity`.  `evaluate` builds its `PhaseArrays`, a named tuple, from
them, and each boundary field of `scan` from the fewest of them that its
quantity needs.  Its
scalar twin `evaluate_floats` is the arithmetic alone on the two Python
floats of one point, where some fifty numpy calls on 1-element arrays would
cost several times the arithmetic, and equals `evaluate` to the bit.  Both
take the largest weight as 1/z and the first label with that weight as
dominant; the twin also skips the exponential known to be 1.0 and builds
its `ScanRecord`, a named tuple, in one call.  A single point is read as
`CouplingParams` reads it, so a 1-element array is not a coupling there;
`scan.evaluate_point` hands the twin the floats a `CouplingParams` checked
as it was built and holds in its two slots.  Every route checks u before v.
The dense matrices, the channel arithmetic and the sphere quadrature
behind these closed forms live in `reference`.
"""
from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import NamedTuple

import numpy as np

COUPLING_LIMIT = 2000.0

CHSH_CLASSICAL_BOUND = 2.0
CHSH_QUANTUM_BOUND = 2.0 * math.sqrt(2.0)

# numeric slack for the strict classification "violating": a CHSH value
# counts as nonlocal only above CHSH_CLASSICAL_BOUND + CHSH_BOUNDARY_TOL
CHSH_BOUNDARY_TOL = 1e-12
SEPARABLE_NEGATIVITY_TOL = 1e-12


class BellLabel(IntEnum):
    """The four Bell states; integer order is the canonical tie-breaking order."""

    PHI_PLUS = 0
    PHI_MINUS = 1
    PSI_PLUS = 2
    PSI_MINUS = 3


class Region(Enum):
    SEPARABLE = "separable"
    ENTANGLED_LOCAL = "entangled_local"
    NONLOCAL = "nonlocal"


REGIONS = tuple(Region)
LABELS = tuple(BellLabel)


# plain numbers, never complex, that float() reads quickly: within the limit they need no reader
_REAL = (float, int, np.float64)


def floats(name: str, x) -> np.ndarray:
    """`x` as `np.asarray(x, dtype=float)` reads it, a long double beyond the
    float range as inf; ValueError if it is complex, not a number, a ragged
    sequence or an integer beyond the float range."""
    try:
        if not np.iscomplexobj(x):  # numpy would keep the real part of a numpy complex
            with np.errstate(over="ignore"):
                return np.asarray(x, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{name} must be finite, got an integer too large for a float") from None
    except (TypeError, ValueError):  # not a number (None reads as nan), or ragged
        pass
    raise ValueError(f"{name} must be finite, got {reprlib.repr(x)}")


def coupling(name: str, x) -> float:
    """`x` as a float; ValueError unless it is a single finite number
    within the stability limit, |x| <= COUPLING_LIMIT."""
    if type(x) in _REAL and abs(x) <= COUPLING_LIMIT:  # nothing to read or reject
        return float(x)
    a = floats(name, x)
    if a.ndim:
        raise ValueError(f"{name} must be a single number, got {reprlib.repr(x)}")
    x = float(a)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    if abs(x) > COUPLING_LIMIT:
        raise ValueError(f"|{name}| = {abs(x)!r} exceeds the stability limit {COUPLING_LIMIT}")
    return x


@dataclass(frozen=True, init=False, slots=True)
class CouplingParams:
    """Dimensionless couplings u = Delta/(k_B T), v = eps/(k_B T)."""

    u: float
    v: float

    def __init__(self, u, v):
        _set_u(self, coupling("u", u))
        _set_v(self, coupling("v", v))


# the slots' own setters, which a frozen class's __setattr__ does not guard:
# one call each, where object.__setattr__ looks the descriptor up by name
_set_u, _set_v = CouplingParams.u.__set__, CouplingParams.v.__set__


class PhaseArrays(NamedTuple):
    """Reported quantities at N coupling points, one 1-D column each;
    `dominant` and `region` are int8 indices into LABELS and REGIONS."""

    u: np.ndarray
    v: np.ndarray
    chsh: np.ndarray
    negativity: np.ndarray
    fidelity: np.ndarray
    dominant: np.ndarray
    dominant_weight: np.ndarray
    region: np.ndarray


class ScanRecord(NamedTuple):
    """Reported quantities at one coupling point."""

    u: float
    v: float
    chsh: float
    negativity: float
    fidelity: float
    dominant_weight: float
    dominant_label: BellLabel
    region: Region


def _points(u, v) -> tuple[np.ndarray, np.ndarray]:
    """u and v broadcast against each other, as flat float arrays with one
    entry per point; u is read and checked before v, as `CouplingParams` does."""
    read = []
    for name, x in (("u", u), ("v", v)):
        a = floats(name, x)
        outside = a[~(np.abs(a) <= COUPLING_LIMIT)]
        if outside.size:  # raises on the first value not finite, else the first beyond
            coupling(name, outside[np.argmin(np.isfinite(outside))].item())
        read.append(a)
    u, v = read
    if u.shape != v.shape:
        try:
            u, v = np.broadcast_arrays(u, v)
        except ValueError:
            raise ValueError(f"u of shape {u.shape} and v of shape {v.shape} "
                             "do not broadcast together") from None
    return u.ravel(), v.ravel()


def weights(u, v) -> np.ndarray:
    """Boltzmann weights of the four Bell levels at each point (u, v)
    broadcast, shape (N, 4): the four columns of `_weights` side by side.

    Energies are shifted by their minimum before exponentiating, so the
    weights stay finite over the whole envelope, and the partition sum adds
    the levels in label order.
    """
    return np.stack(_weights(*_points(u, v))[:4], axis=1)


def _weights(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """`weights` at the points `_points` has read and checked, one column per
    level in label order, then the largest weight, 1.0 / z (see `evaluate_floats`)."""
    e = ((u + 3.0 * v) / 6.0, (u - 3.0 * v) / 6.0, -u / 3.0)
    m = np.minimum(np.minimum(np.minimum(e[0], e[1]), e[2]), 0.0)  # Psi-'s level is 0.0
    # exp(-(e - m)): m - e is -(e - m) up to the sign of a zero, whose exp is
    # 1.0 either way, and -(0.0 - m) is m
    s = [np.exp(m - x) for x in e] + [np.exp(m)]
    z = ((s[0] + s[1]) + s[2]) + s[3]
    return (*(x / z for x in s), 1.0 / z)


def _chsh(pp: np.ndarray, pm: np.ndarray, sp: np.ndarray, sm: np.ndarray) -> np.ndarray:
    """CHSH at each point from the four weight columns: 2 sqrt of the
    largest sum of two squared correlations."""
    c = (pp - pm + sp - sm, -pp + pm + sp - sm, pp + pm - sp - sm)
    # Python's float ** 2 goes through libm pow, which can differ from x * x
    # in the last bit; `evaluate_floats` squares that way, so this one does too
    # (float_power calls pow; np.power and x * x may not)
    a, b, s = (np.float_power(x, 2.0, out=x) for x in c)
    return 2.0 * np.sqrt(np.maximum(np.maximum(a + b, a + s), b + s))


def _fidelity(w_max: np.ndarray) -> np.ndarray:
    """The best teleportation fidelity (1 + 2 w_max) / 3 at each point."""
    return (1.0 + 2.0 * w_max) / 3.0


def evaluate(u, v) -> PhaseArrays:
    """All reported quantities of the thermal state at each point (u, v),
    with u and v broadcast against each other, one 1-D column each.

    The dominant label is the highest weight; exact ties fall to the
    earlier label.  `dominant` and `region` are int8 indices into LABELS
    and REGIONS.
    """
    u, v = _points(u, v)
    pp, pm, sp, sm, w_max = _weights(u, v)
    chsh = _chsh(pp, pm, sp, sm)
    # the first label whose weight is the largest: later labels are overwritten
    dominant = np.full(u.size, 3, np.int8)
    for label, w in ((2, sp), (1, pm), (0, pp)):
        dominant[w == w_max] = label
    negativity = np.maximum(0.0, w_max - 0.5)
    region = np.ones(u.size, np.int8)
    region[chsh > CHSH_CLASSICAL_BOUND + CHSH_BOUNDARY_TOL] = 2
    region[negativity < SEPARABLE_NEGATIVITY_TOL] = 0
    return PhaseArrays(u=u, v=v, chsh=chsh, negativity=negativity,
                       fidelity=_fidelity(w_max), dominant=dominant,
                       dominant_weight=w_max, region=region)


# the callables and constants `evaluate_floats` uses, bound once here: one
# name each, not an attribute or a sum looked up on every call
_exp, _sqrt, _new = np.exp, math.sqrt, tuple.__new__
(_PP, _PM, _SP, _SM), (_SEPARABLE, _LOCAL, _NONLOCAL) = LABELS, REGIONS
_CHSH_NONLOCAL = CHSH_CLASSICAL_BOUND + CHSH_BOUNDARY_TOL  # nonlocal strictly above


def evaluate_floats(u: float, v: float) -> ScanRecord:
    """`evaluate` at the single point (u, v), two Python floats within the
    envelope as `CouplingParams` holds them, with no check of its own; a
    record of Python floats and the dominant label and region themselves.

    Each value equals the core's to the bit, though two steps are skipped
    because their result is known exactly:
    - The level at the least energy is not exponentiated: its exponent is
      0.0 or -0.0, whose `np.exp` is 1.0.  Every other exponential is
      `np.exp` of one float below 0, at most 1.0, with the bits of the loop
      `weights` runs on arrays (`math.exp` can differ in the last bit).
    - So the largest weight is 1.0 / z, as rounded division by z > 0 keeps
      that order; the label is the first of Phi+, Phi- and Psi+ whose weight
      equals it, else Psi-, the tie rule of `np.argmax`.
    The least energy and the maxima are comparisons, which pick values equal
    to those `min` and `np.maximum` pick, and squares use Python's float
    `**` (libm pow, as `np.float_power` does).
    """
    t = 3.0 * v
    e0, e1, e2 = (u + t) / 6.0, (u - t) / 6.0, -u / 3.0
    # the least energy, never above Psi-'s 0.0: e0 > 0 and e1 > 0 need u > |3v|, so e2 < 0
    m = e0 if e0 < e1 else e1
    if e2 < m:
        m = e2
    s0 = 1.0 if e0 == m else float(_exp(-(e0 - m)))
    s1 = 1.0 if e1 == m else float(_exp(-(e1 - m)))
    s2 = 1.0 if e2 == m else float(_exp(-(e2 - m)))
    s3 = 1.0 if m == 0.0 else float(_exp(m))  # m is -(0.0 - m) exactly
    z = ((s0 + s1) + s2) + s3
    pp, pm, sp, sm = s0 / z, s1 / z, s2 / z, s3 / z
    a = (pp - pm + sp - sm) ** 2.0
    b = (-pp + pm + sp - sm) ** 2.0
    s = (pp + pm - sp - sm) ** 2.0
    # rounding is monotone, so the largest pair sum is the sum without the least
    top = (b + s if a < s else a + b) if a < b else (a + s if b < s else a + b)
    chsh = 2.0 * _sqrt(top)
    w_max = 1.0 / z
    label = _PP if pp == w_max else _PM if pm == w_max else _SP if sp == w_max else _SM
    negativity, region = 0.0, _SEPARABLE
    if w_max > 0.5:
        negativity = w_max - 0.5
        if negativity >= SEPARABLE_NEGATIVITY_TOL:
            region = _NONLOCAL if chsh > _CHSH_NONLOCAL else _LOCAL
    # the call ScanRecord's generated __new__ makes, without its Python frame
    return _new(ScanRecord, (u, v, chsh, negativity, (1.0 + 2.0 * w_max) / 3.0,
                             w_max, label, region))
