"""Array core: every reported quantity of the thermal state on arrays of (u, v).

The thermal state is Bell diagonal (see `dipolar`), so each quantity is a
closed form of the four Boltzmann weights w_a:

    c1, c2, c3  signed sums of the weights
    chsh        2 sqrt of the two largest c_i^2 (Horodecki, PLA 200, 340, 1995)
    negativity  max(0, w_max - 1/2)
    fidelity    (1 + 2 w_max) / 3

A batch is validated once, under the conditions that `CouplingParams`,
`SpectralData`, `CorrelationTriple`, `ChshResult` and `FidelityReport` check
for a single point, and every operation repeats the scalar route's
arithmetic in the same order, so each entry equals `scan.evaluate_point` at
the same couplings to the bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dipolar import COUPLING_LIMIT, BellLabel, VALIDATION_TOL
from .measures import CHSH_BOUNDARY_TOL, CHSH_CLASSICAL_BOUND, CHSH_QUANTUM_BOUND

SEPARABLE_NEGATIVITY_TOL = 1e-12


class Region(Enum):
    SEPARABLE = "separable"
    ENTANGLED_LOCAL = "entangled_local"
    NONLOCAL = "nonlocal"


REGIONS = tuple(Region)
LABELS = tuple(BellLabel)


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


def _require(ok: np.ndarray, u: np.ndarray, v: np.ndarray, what: str) -> None:
    if not np.all(ok):
        k = int(np.argmin(ok))
        raise ValueError(f"{what} at (u, v) = ({float(u[k])!r}, {float(v[k])!r})")


def weights(u, v) -> np.ndarray:
    """Boltzmann weights of the four Bell levels, shape (N, 4).

    Energies are shifted by their minimum before exponentiating, as in
    `dipolar.spectrum`, and the partition sum adds the levels in label order.
    """
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
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
    w = scaled / z[:, None]

    _require(np.all(np.isfinite(w), axis=1), u, v, "weights must be finite")
    _require((w.min(axis=1) >= -VALIDATION_TOL)
             & (w.max(axis=1) <= 1.0 + VALIDATION_TOL), u, v, "weights must lie in [0, 1]")
    _require(np.abs(w.sum(axis=1) - 1.0) <= VALIDATION_TOL, u, v, "weights must sum to 1")
    by_energy = np.take_along_axis(w, np.argsort(e, axis=1, kind="stable"), axis=1)
    _require(np.diff(by_energy, axis=1).max(axis=1) <= VALIDATION_TOL, u, v,
             "weights must not increase with energy")
    return w


def dominant(w: np.ndarray, u, v) -> np.ndarray:
    """Label index of the highest weight; exact ties fall to the earlier label.

    The Psi-minus level sits at energy zero and can never be the strict
    ground state, so a Psi-minus result is impossible and worth a hard check.
    """
    best = np.argmax(w, axis=1)
    if np.any(best == BellLabel.PSI_MINUS):
        k = int(np.argmax(best == BellLabel.PSI_MINUS))
        raise RuntimeError(
            f"PsiMinus weight reported strictly dominant at ({float(u[k])}, {float(v[k])})"
        )
    return best


def evaluate(u, v) -> PhaseArrays:
    """All reported quantities of the thermal state at each (u[k], v[k])."""
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    w = weights(u, v)
    pp, pm, sp, sm = w.T
    c = np.empty((u.size, 3))
    c[:, 0] = pp - pm + sp - sm
    c[:, 1] = -pp + pm + sp - sm
    c[:, 2] = pp + pm - sp - sm
    _require(np.all(np.abs(c) <= 1.0 + VALIDATION_TOL, axis=1), u, v,
             "correlations must lie in [-1, 1]")
    c1, c2, c3 = c.T
    tetrahedron = np.column_stack((1.0 + c1 - c2 + c3, 1.0 - c1 + c2 + c3,
                                   1.0 + c1 + c2 - c3, 1.0 - c1 - c2 - c3)) / 4.0
    _require(tetrahedron.min(axis=1) >= -VALIDATION_TOL, u, v,
             "outside the Bell tetrahedron")

    # Python's float ** 2 goes through libm pow, which can differ from x * x
    # in the last bit; the scalar route squares that way, so this one does too
    # (float_power calls pow; np.power and x * x may not)
    a, b, s = np.float_power(c, 2.0).T
    chsh = 2.0 * np.sqrt(np.maximum(np.maximum(a + b, a + s), b + s))
    _require((chsh >= -VALIDATION_TOL)
             & (chsh <= CHSH_QUANTUM_BOUND + VALIDATION_TOL), u, v,
             "CHSH value outside [0, 2*sqrt(2)]")

    rows = np.arange(u.size)
    best = dominant(w, u, v)
    w_max = w[rows, best]
    fidelities = (1.0 + 2.0 * w) / 3.0
    _require((fidelities.min(axis=1) >= 1.0 / 3.0 - VALIDATION_TOL)
             & (fidelities.max(axis=1) <= 1.0 + VALIDATION_TOL), u, v,
             "fidelities outside [1/3, 1]")
    negativity = np.maximum(0.0, w_max - 0.5)
    region = np.where(negativity < SEPARABLE_NEGATIVITY_TOL, 0,
                      np.where(chsh > CHSH_CLASSICAL_BOUND + CHSH_BOUNDARY_TOL, 2, 1))
    return PhaseArrays(u=u, v=v, chsh=chsh, negativity=negativity,
                       fidelity=fidelities[rows, best], dominant=best,
                       dominant_weight=w_max, region=region)
