"""Standard teleportation through a Bell-diagonal resource state.

With resource rho and measurement seed K0 = |k0><k0| the protocol maps an
input qubit to

    rho_out = sum_mu Tr(K_mu rho) sigma_mu rho_in sigma_mu,
    K_mu = (sigma_mu x I) K0 (sigma_mu x I),

so a Bell-diagonal rho acts as a Pauli channel whose flip probabilities are
a relabeling of the Bell weights.  Averaged over the Bloch sphere the
fidelity is (1 + 2 p_k0)/3: the channel beats the classical record
2/(1 + d) = 2/3 exactly when the seed's weight exceeds 1/2.  The channel
arithmetic and the sphere quadrature behind that average live in
`reference`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dipolar import VALIDATION_TOL, BellLabel, SpectralData

CLASSICAL_DIMENSION = 2


def average_fidelity(spectral: SpectralData, k0: BellLabel) -> float:
    """Bloch-sphere average of the teleportation fidelity: (1 + 2 p_k0)/3."""
    return (1.0 + 2.0 * spectral.weight(k0)) / 3.0


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
        if (float(f.min()) < 1.0 / 3.0 - VALIDATION_TOL
                or float(f.max()) > 1.0 + VALIDATION_TOL):
            raise ValueError(f"fidelities {f!r} outside [1/3, 1]")
        if abs(float(self.best) - float(f.max())) > VALIDATION_TOL:
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
