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
limit.  For such inputs the closed forms guarantee the rest (weights a
probability vector that never rises with energy, correlations inside the
Bell tetrahedron, CHSH in [0, 2 sqrt 2], fidelity in [1/3, 1], Psi-minus
never dominant); `tests/test_properties.py` asserts those facts over the
whole envelope.  `evaluate` serves arrays of points; its scalar twin
`evaluate_one` repeats the same checks and arithmetic, in the same order,
on Python floats for one point, where some fifty numpy calls on 1-element
arrays would cost several times the arithmetic, and equals `evaluate` to
the bit.  The dense matrices, the channel arithmetic and the sphere
quadrature behind these closed forms live in `reference`.
"""
from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from enum import Enum, IntEnum

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


def _too_large(name: str) -> ValueError:
    return ValueError(f"{name} must be finite, got an integer too large for a float")


def finite_float(name: str, x) -> float:
    """`x` as a float; ValueError unless it is a finite number."""
    try:
        x = float(x)
    except TypeError:  # None and other non-numbers
        pass
    except OverflowError:  # an integer beyond the float range
        raise _too_large(name) from None
    if not (isinstance(x, float) and math.isfinite(x)):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


@dataclass(frozen=True)
class CouplingParams:
    """Dimensionless couplings u = Delta/(k_B T), v = eps/(k_B T)."""

    u: float
    v: float

    def __post_init__(self):
        for name in ("u", "v"):
            x = finite_float(name, getattr(self, name))
            if abs(x) > COUPLING_LIMIT:
                raise ValueError(
                    f"|{name}| = {abs(x)} exceeds the stability limit {COUPLING_LIMIT}"
                )
            object.__setattr__(self, name, x)


@dataclass(frozen=True)
class PhaseArrays:
    """Reported quantities at N coupling points; `dominant` and `region`
    index LABELS and REGIONS."""

    u: np.ndarray
    v: np.ndarray
    chsh: np.ndarray
    negativity: np.ndarray
    fidelity: np.ndarray
    dominant: np.ndarray
    dominant_weight: np.ndarray
    region: np.ndarray


def _points(u, v) -> tuple[np.ndarray, np.ndarray]:
    """u and v broadcast against each other, as flat float arrays with one
    entry per point."""
    arrays = []
    for name, x in (("u", u), ("v", v)):
        try:
            arrays.append(np.asarray(x, dtype=float))
        except OverflowError:  # an integer beyond the float range
            raise _too_large(name) from None
        except TypeError:  # complex and other non-numbers
            raise ValueError(f"{name} must be finite, got {reprlib.repr(x)}") from None
    u, v = arrays
    if u.shape != v.shape:
        u, v = np.broadcast_arrays(u, v)
    return u.ravel(), v.ravel()


def _require(ok: np.ndarray, u: np.ndarray, v: np.ndarray, what: str) -> None:
    if not ok.all():
        k = int(np.argmin(ok))
        raise ValueError(f"{what} at (u, v) = ({float(u[k])!r}, {float(v[k])!r})")


def weights(u, v) -> np.ndarray:
    """Boltzmann weights of the four Bell levels at each point (u, v)
    broadcast, shape (N, 4).

    Energies are shifted by their minimum before exponentiating, so the
    weights stay finite over the whole envelope, and the partition sum adds
    the levels in label order.
    """
    u, v = _points(u, v)
    for name, x in (("u", u), ("v", v)):
        _require(np.isfinite(x), u, v, f"{name} must be finite")
        _require(np.abs(x) <= COUPLING_LIMIT, u, v,
                 f"|{name}| exceeds the stability limit {COUPLING_LIMIT}")
    e = np.empty((u.size, 4))
    e[:, 0] = (u + 3.0 * v) / 6.0
    e[:, 1] = (u - 3.0 * v) / 6.0
    e[:, 2] = -u / 3.0
    e[:, 3] = 0.0
    scaled = np.exp(-(e - e.min(axis=1)[:, None]))
    z = ((scaled[:, 0] + scaled[:, 1]) + scaled[:, 2]) + scaled[:, 3]
    return scaled / z[:, None]


def evaluate(u, v) -> PhaseArrays:
    """All reported quantities of the thermal state at each point (u, v),
    with u and v broadcast against each other.

    The dominant label is the highest weight; exact ties fall to the
    earlier label.
    """
    u, v = _points(u, v)
    w = weights(u, v)
    pp, pm, sp, sm = w.T
    c = np.empty((u.size, 3))
    c[:, 0] = pp - pm + sp - sm
    c[:, 1] = -pp + pm + sp - sm
    c[:, 2] = pp + pm - sp - sm
    # Python's float ** 2 goes through libm pow, which can differ from x * x
    # in the last bit; `evaluate_one` squares that way, so this one does too
    # (float_power calls pow; np.power and x * x may not)
    a, b, s = np.float_power(c, 2.0).T
    chsh = 2.0 * np.sqrt(np.maximum(np.maximum(a + b, a + s), b + s))
    best = np.argmax(w, axis=1)
    w_max = w[np.arange(u.size), best]
    negativity = np.maximum(0.0, w_max - 0.5)
    region = np.where(negativity < SEPARABLE_NEGATIVITY_TOL, 0,
                      np.where(chsh > CHSH_CLASSICAL_BOUND + CHSH_BOUNDARY_TOL, 2, 1))
    return PhaseArrays(u=u, v=v, chsh=chsh, negativity=negativity,
                       fidelity=(1.0 + 2.0 * w_max) / 3.0, dominant=best,
                       dominant_weight=w_max, region=region)


def evaluate_one(u, v) -> tuple:
    """`evaluate` at the single point (u, v), as Python scalars: the fields
    of `PhaseArrays` in order, with `dominant` and `region` as indices.

    It keeps `weights`' input checks and their messages, and repeats the
    array core's arithmetic in the same order, so each value equals the
    core's to the bit.  The four exponentials go through one `np.exp` on a
    4-vector, as in `weights`: `math.exp` can differ from it in the last
    bit.  Squares use Python's float `**` (libm pow, as
    `np.float_power` does) and ties fall to the earlier label, as in
    `np.argmax`.
    """
    try:
        u, v = float(u), float(v)
    except (TypeError, OverflowError):  # None, a 1-element array, a huge int
        u, v = (x.item() for x in _points(u, v))
    if not (abs(u) <= COUPLING_LIMIT and abs(v) <= COUPLING_LIMIT):
        weights(u, v)  # not finite or beyond the limit: raises the core's error
    e0, e1, e2 = (u + 3.0 * v) / 6.0, (u - 3.0 * v) / 6.0, -u / 3.0
    m = min(e0, e1, e2, 0.0)
    s0, s1, s2, s3 = np.exp([-(e0 - m), -(e1 - m), -(e2 - m), -(0.0 - m)]).tolist()
    z = ((s0 + s1) + s2) + s3
    w = [s0 / z, s1 / z, s2 / z, s3 / z]
    pp, pm, sp, sm = w
    a = (pp - pm + sp - sm) ** 2.0
    b = (-pp + pm + sp - sm) ** 2.0
    s = (pp + pm - sp - sm) ** 2.0
    chsh = 2.0 * math.sqrt(max(a + b, a + s, b + s))
    best = max(range(4), key=w.__getitem__)
    w_max = w[best]
    negativity = max(0.0, w_max - 0.5)
    region = (0 if negativity < SEPARABLE_NEGATIVITY_TOL
              else 2 if chsh > CHSH_CLASSICAL_BOUND + CHSH_BOUNDARY_TOL else 1)
    return u, v, chsh, negativity, (1.0 + 2.0 * w_max) / 3.0, best, w_max, region
