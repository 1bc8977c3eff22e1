"""Thermal entanglement, nonlocality and teleportation capacity of a
dipolar-coupled spin-1/2 pair, over the coupling plane (u, v) = (Delta/kT, eps/kT).

The definition-level routes (dense matrices, eigensolves, channel
arithmetic, sphere quadrature) live in `dipolepair.reference` and are not
imported here."""

from .core import (
    CHSH_CLASSICAL_BOUND,
    CHSH_QUANTUM_BOUND,
    COUPLING_LIMIT,
    BellLabel,
    CouplingParams,
    Region,
    ScanRecord,
    evaluate_point,
)
from .scan import (
    BoundaryQuantity,
    ContourPolyline,
    GridSpec,
    GridTooLargeError,
    trace_boundary,
)

__version__ = "0.1.0"

__all__ = [
    "BellLabel",
    "BoundaryQuantity",
    "CHSH_CLASSICAL_BOUND",
    "CHSH_QUANTUM_BOUND",
    "COUPLING_LIMIT",
    "ContourPolyline",
    "CouplingParams",
    "GridSpec",
    "GridTooLargeError",
    "Region",
    "ScanRecord",
    "evaluate_point",
    "trace_boundary",
]
