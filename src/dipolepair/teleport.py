"""Standard teleportation through a Bell-diagonal resource state.

With resource rho and measurement seed K0 = |k0><k0| the protocol maps an
input qubit to

    rho_out = sum_mu Tr(K_mu rho) sigma_mu rho_in sigma_mu,
    K_mu = (sigma_mu x I) K0 (sigma_mu x I),

so a Bell-diagonal rho acts as a Pauli channel whose flip probabilities are
a relabeling of the Bell weights.  Averaged over the Bloch sphere the
fidelity is (1 + 2 p_k0)/3: the channel beats the classical record
2/(1 + d) = 2/3 exactly when the seed's weight exceeds 1/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dipolar import SpectralData
from .linalg import (
    BellLabel,
    bell_state,
    bloch_to_state,
    kron,
    pauli,
    projector,
    reduce_sphere_angles,
    require_density_matrix,
)

CLASSICAL_DIMENSION = 2

_RANGE_TOL = 1e-12

# Pauli corrections lifted to the pair; they act on the first factor
_LIFTS = tuple(kron(pauli(mu), pauli(0)) for mu in range(4))


@dataclass(frozen=True)
class BlochAngles:
    """Bloch-sphere direction, reduced on construction to theta in [0, pi],
    phi in [0, 2*pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        t, p = reduce_sphere_angles(float(self.theta), float(self.phi))
        object.__setattr__(self, "theta", t)
        object.__setattr__(self, "phi", p)

    def state(self) -> np.ndarray:
        return bloch_to_state(self.theta, self.phi)

    def density(self) -> np.ndarray:
        return projector(self.state())

    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )


def pauli_conjugation(mu: int, angles: BlochAngles) -> np.ndarray:
    """sigma_mu rho sigma_mu for the pure state at the given Bloch angles;
    flips every Bloch component except the mu-th."""
    s = pauli(mu)
    return s @ angles.density() @ s


def channel_state(spectral: SpectralData) -> np.ndarray:
    """Bell-diagonal resource density matrix sum_a p_a |a><a|."""
    rho = np.zeros((4, 4), dtype=complex)
    for label in BellLabel:
        rho += spectral.weight(label) * projector(bell_state(label))
    return rho


def channel_output(spectral: SpectralData, k0: BellLabel, angles: BlochAngles) -> np.ndarray:
    """Teleported qubit state, by direct matrix arithmetic.

    The four flip probabilities Tr(K_mu rho) and the Pauli conjugations are
    evaluated literally; no relabeling shortcut is taken, so this route can
    back the closed-form fidelities independently.
    """
    rho = channel_state(spectral)
    seed = projector(bell_state(k0))
    rho_in = angles.density()
    out = np.zeros((2, 2), dtype=complex)
    for mu, lift in enumerate(_LIFTS):
        q = float(np.trace(lift @ seed @ lift @ rho).real)
        out += q * (pauli(mu) @ rho_in @ pauli(mu))
    return out


def fidelity_pointwise(angles: BlochAngles, output, tol: float = 1e-10) -> float:
    """Overlap <psi_in| rho_out |psi_in> of the teleported state with its input."""
    rho = require_density_matrix(output, tol, name="channel output")
    psi = angles.state()
    return float((psi.conj() @ rho @ psi).real)


def average_fidelity(spectral: SpectralData, k0: BellLabel) -> float:
    """Bloch-sphere average of the teleportation fidelity: (1 + 2 p_k0)/3."""
    return (1.0 + 2.0 * spectral.weight(k0)) / 3.0


def average_fidelity_quadrature(spectral: SpectralData, k0: BellLabel, order: int) -> float:
    """Sphere-averaged fidelity by explicit quadrature over input states.

    Product rule: `order`-point Gauss-Legendre in cos(theta) times a
    2*order-point uniform rule in phi.  The integrand is degree 2 in the
    Bloch components, so any order >= 2 is already exact and must agree
    with average_fidelity to rounding.
    """
    order = int(order)
    if order < 2:
        raise ValueError(f"quadrature order must be at least 2, got {order}")
    nodes, gauss_w = np.polynomial.legendre.leggauss(order)
    n_phi = 2 * order
    total = 0.0
    for x, wgt in zip(nodes, gauss_w):
        theta = math.acos(float(x))
        for j in range(n_phi):
            angles = BlochAngles(theta, 2.0 * math.pi * j / n_phi)
            total += wgt * fidelity_pointwise(
                angles, channel_output(spectral, k0, angles)
            )
    # Gauss weights integrate to 2 over cos(theta); phi nodes carry 2*pi/n_phi:
    # dividing by 4*pi leaves 1/(2 n_phi)
    return total / (2.0 * n_phi)


@dataclass(frozen=True)
class FidelityReport:
    """Average fidelity per measurement seed plus the best achievable choice."""

    fidelities: np.ndarray
    best: float
    best_label: BellLabel
    above_classical: bool

    def __post_init__(self):
        f = np.asarray(self.fidelities, dtype=float)
        if f.shape != (4,):
            raise ValueError(f"expected one fidelity per Bell seed, got shape {f.shape}")
        if float(f.min()) < 1.0 / 3.0 - _RANGE_TOL or float(f.max()) > 1.0 + _RANGE_TOL:
            raise ValueError(f"fidelities {f!r} outside [1/3, 1]")
        if abs(float(self.best) - float(f.max())) > _RANGE_TOL:
            raise ValueError("best fidelity must be the maximum over seeds")
        object.__setattr__(self, "fidelities", f)
        object.__setattr__(self, "best", float(self.best))


def minimum_fidelity(dim: int = CLASSICAL_DIMENSION) -> float:
    """Best classical (measure-and-resend) average fidelity 2/(1 + d)."""
    if int(dim) != dim or int(dim) < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {dim!r}")
    return 2.0 / (1.0 + int(dim))


def best_fidelity(spectral: SpectralData) -> FidelityReport:
    """Best average fidelity over the four measurement seeds.

    The maximum over all four equals the usual maximum over the first
    three, because the Psi-minus weight can never strictly dominate a
    thermal spectrum here; scanning all four keeps the report honest for
    arbitrary Bell-diagonal inputs.  Exact ties fall to the canonical
    label order.
    """
    fids = np.array([average_fidelity(spectral, label) for label in BellLabel])
    best_label = BellLabel.PHI_PLUS
    for label in BellLabel:
        if fids[label] > fids[best_label]:
            best_label = label
    best = float(fids[best_label])
    return FidelityReport(
        fidelities=fids,
        best=best,
        best_label=best_label,
        above_classical=best > minimum_fidelity(CLASSICAL_DIMENSION),
    )
