"""Thermal model of two spin-1/2 particles with a dipolar interaction.

Everything is parameterized by the dimensionless couplings
(u, v) = (Delta/kT, eps/kT).  In units of k_B T the interaction reads

    H = (1/6) [[ u, 0, 0, 3v],
               [ 0, -u, -u, 0],
               [ 0, -u, -u, 0],
               [3v, 0, 0,  u]]

whose eigenstates are the four Bell states with energies

    E(Phi+) = (u + 3v)/6,  E(Phi-) = (u - 3v)/6,  E(Psi+) = -u/3,  E(Psi-) = 0.

The thermal state is therefore Bell diagonal and its Boltzmann weights carry
all the information downstream measures need.  The dense matrices of the
same model are built from their definitions in `reference`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

COUPLING_LIMIT = 2000.0

# slack every validator allows on derived weights, correlations and measures
VALIDATION_TOL = 1e-12

# stand-in energy for an exactly zero weight: exp(-800) underflows to 0.0,
# so the pair (E, w) stays self-consistent while remaining finite
_ZERO_WEIGHT_ENERGY = 800.0


class BellLabel(IntEnum):
    """The four Bell states; integer order is the canonical tie-breaking order."""

    PHI_PLUS = 0
    PHI_MINUS = 1
    PSI_PLUS = 2
    PSI_MINUS = 3


@dataclass(frozen=True)
class CouplingParams:
    """Dimensionless couplings u = Delta/(k_B T), v = eps/(k_B T)."""

    u: float
    v: float

    def __post_init__(self):
        for name in ("u", "v"):
            x = float(getattr(self, name))
            if not math.isfinite(x):
                raise ValueError(f"{name} must be finite, got {x}")
            if abs(x) > COUPLING_LIMIT:
                raise ValueError(
                    f"|{name}| = {abs(x)} exceeds the stability limit {COUPLING_LIMIT}"
                )
            object.__setattr__(self, name, x)


def bell_energies(params: CouplingParams) -> np.ndarray:
    """Bell-level energies in units of k_B T, indexed by BellLabel."""
    u, v = params.u, params.v
    return np.array([(u + 3.0 * v) / 6.0, (u - 3.0 * v) / 6.0, -u / 3.0, 0.0])


@dataclass(frozen=True)
class SpectralData:
    """Bell-level energies, Boltzmann weights and log partition sum.

    Arrays are indexed by BellLabel.  Weights are a probability vector and
    never increase with energy; both facts are checked on construction.
    """

    energies: np.ndarray
    weights: np.ndarray
    log_partition: float

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if e.shape != (4,) or w.shape != (4,):
            raise ValueError(f"expected 4 Bell levels, got shapes {e.shape}, {w.shape}")
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(w))):
            raise ValueError("energies and weights must be finite")
        if float(w.min()) < -VALIDATION_TOL or float(w.max()) > 1.0 + VALIDATION_TOL:
            raise ValueError(f"weights must lie in [0, 1], got {w!r}")
        if abs(float(w.sum()) - 1.0) > VALIDATION_TOL:
            raise ValueError(f"weights must sum to 1, got {float(w.sum())!r}")
        order = np.argsort(e, kind="stable")
        if float(np.max(np.diff(w[order]))) > VALIDATION_TOL:
            raise ValueError("weights must not increase with energy")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "log_partition", float(self.log_partition))

    def weight(self, label: BellLabel) -> float:
        return float(self.weights[BellLabel(label)])

    def dominant(self) -> tuple[BellLabel, float]:
        """Highest-weight level; exact ties fall to the canonical label order."""
        best = BellLabel.PHI_PLUS
        for label in BellLabel:
            if self.weights[label] > self.weights[best]:
                best = label
        return best, float(self.weights[best])

    @classmethod
    def from_weights(cls, weights) -> "SpectralData":
        """Spectral data for bare Boltzmann weights (implied partition sum 1)."""
        w = np.asarray(weights, dtype=float)
        e = np.array(
            [-math.log(x) if x > 0.0 else _ZERO_WEIGHT_ENERGY for x in w.ravel()]
        )
        return cls(energies=e, weights=w, log_partition=0.0)


def spectrum(params: CouplingParams) -> SpectralData:
    """Boltzmann weights of the four Bell levels at couplings (u, v).

    Exponentials are taken after subtracting the minimum energy:
    weights stay finite and normalized all the way to |u| = |v| = 2000,
    and log Z = log(sum_a exp(-(E_a - E_min))) - E_min recovers the
    unshifted partition sum.
    """
    e = bell_energies(params)
    shift = float(e.min())
    scaled = np.exp(-(e - shift))
    z = float(scaled.sum())
    return SpectralData(energies=e, weights=scaled / z, log_partition=math.log(z) - shift)


@dataclass(frozen=True)
class CorrelationTriple:
    """Diagonal spin-spin correlations (c1, c2, c3) of a Bell-diagonal state.

    The admissible region is the tetrahedron whose vertices are the four
    Bell states; membership is enforced by requiring the equivalent Bell
    weights to form a probability vector.
    """

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        for name in ("c1", "c2", "c3"):
            x = float(getattr(self, name))
            if not math.isfinite(x) or abs(x) > 1.0 + VALIDATION_TOL:
                raise ValueError(f"{name} must lie in [-1, 1], got {x!r}")
            object.__setattr__(self, name, x)
        w = self.bell_weights()
        if float(w.min()) < -VALIDATION_TOL:
            raise ValueError(f"({self.c1}, {self.c2}, {self.c3}) lies outside the Bell tetrahedron")

    def bell_weights(self) -> np.ndarray:
        """Equivalent Bell weights, indexed by BellLabel."""
        c1, c2, c3 = self.c1, self.c2, self.c3
        return (
            np.array(
                [
                    1.0 + c1 - c2 + c3,
                    1.0 - c1 + c2 + c3,
                    1.0 + c1 + c2 - c3,
                    1.0 - c1 - c2 - c3,
                ]
            )
            / 4.0
        )

    def matrix(self) -> np.ndarray:
        return np.diag([self.c1, self.c2, self.c3])

    @classmethod
    def from_weights(cls, weights) -> "CorrelationTriple":
        w = np.asarray(weights, dtype=float)
        wpp = w[BellLabel.PHI_PLUS]
        wpm = w[BellLabel.PHI_MINUS]
        wsp = w[BellLabel.PSI_PLUS]
        wsm = w[BellLabel.PSI_MINUS]
        return cls(
            c1=wpp - wpm + wsp - wsm,
            c2=-wpp + wpm + wsp - wsm,
            c3=wpp + wpm - wsp - wsm,
        )


def correlations(params: CouplingParams) -> CorrelationTriple:
    """Diagonal correlations of the thermal state; c1 <-> c2 under v -> -v."""
    return CorrelationTriple.from_weights(spectrum(params).weights)

