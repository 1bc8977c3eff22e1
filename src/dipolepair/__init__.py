"""Thermal entanglement, nonlocality and teleportation capacity of a
dipolar-coupled spin-1/2 pair, over the coupling plane (u, v) = (Delta/kT, eps/kT).

The definition-level routes (dense matrices, eigensolves, channel
arithmetic, sphere quadrature) live in `dipolepair.reference` and are not
imported here."""

from .dipolar import (
    COUPLING_LIMIT,
    BellLabel,
    CorrelationTriple,
    CouplingParams,
    SpectralData,
    bell_energies,
    correlations,
    spectrum,
)
from .measures import (
    CHSH_CLASSICAL_BOUND,
    CHSH_QUANTUM_BOUND,
    ChshResult,
    chsh_from_correlations,
    chsh_max,
    negativity_bell_diagonal,
)
from .scan import (
    BoundaryQuantity,
    ContourPolyline,
    GridSpec,
    GridTooLargeError,
    Region,
    ScanRecord,
    dominant_map,
    evaluate_point,
    scan_grid,
    trace_boundary,
)
from .teleport import (
    FidelityReport,
    average_fidelity,
    best_fidelity,
    minimum_fidelity,
)

__version__ = "0.1.0"

__all__ = [
    "BellLabel",
    "BoundaryQuantity",
    "CHSH_CLASSICAL_BOUND",
    "CHSH_QUANTUM_BOUND",
    "COUPLING_LIMIT",
    "ChshResult",
    "ContourPolyline",
    "CorrelationTriple",
    "CouplingParams",
    "FidelityReport",
    "GridSpec",
    "GridTooLargeError",
    "Region",
    "ScanRecord",
    "SpectralData",
    "average_fidelity",
    "bell_energies",
    "best_fidelity",
    "chsh_from_correlations",
    "chsh_max",
    "correlations",
    "dominant_map",
    "evaluate_point",
    "minimum_fidelity",
    "negativity_bell_diagonal",
    "scan_grid",
    "spectrum",
    "trace_boundary",
]
