"""Nonlocality and entanglement measures of the Bell-diagonal thermal state.

For a state with correlation matrix C the maximal CHSH expectation over
measurement settings is 2 sqrt(m1 + m2), m1 >= m2 the two largest
eigenvalues of C^T C; values above 2 certify nonlocality and 2 sqrt(2) is
the quantum ceiling.

Negativity is the trace-norm measure N = (||rho^{T_A}||_1 - 1)/2, i.e. the
absolute sum of the negative partial-transpose eigenvalues.  On this scale
a maximally entangled two-qubit state scores 1/2; presentation layers may
double the value so the ceiling reads 1 instead.  For a Bell-diagonal
state the partial transpose has eigenvalues {1/2 - p_a}, so the measure
collapses to max(0, max_a p_a - 1/2).  The general routes, by
eigendecomposition, live in `reference`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dipolar import (
    VALIDATION_TOL,
    CorrelationTriple,
    CouplingParams,
    SpectralData,
    correlations,
)

CHSH_CLASSICAL_BOUND = 2.0
CHSH_QUANTUM_BOUND = 2.0 * math.sqrt(2.0)

# numeric slack for the strict classification "violating": a CHSH value
# counts as nonlocal only above CHSH_CLASSICAL_BOUND + CHSH_BOUNDARY_TOL
CHSH_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class ChshResult:
    """Maximal CHSH expectation and whether it breaches the classical bound."""

    value: float
    violating: bool

    def __post_init__(self):
        x = float(self.value)
        if not (-VALIDATION_TOL <= x <= CHSH_QUANTUM_BOUND + VALIDATION_TOL):
            raise ValueError(f"CHSH value {x!r} outside [0, 2*sqrt(2)]")
        object.__setattr__(self, "value", x)


def _chsh_result(value: float) -> ChshResult:
    value = max(0.0, float(value))
    return ChshResult(value=value, violating=value > CHSH_CLASSICAL_BOUND + CHSH_BOUNDARY_TOL)


def chsh_from_correlations(corr: CorrelationTriple) -> ChshResult:
    """Closed form for a diagonal correlation matrix: drop the smallest c_i^2."""
    a, b, c = corr.c1 ** 2, corr.c2 ** 2, corr.c3 ** 2
    return _chsh_result(2.0 * math.sqrt(max(a + b, a + c, b + c)))


def chsh_max(params: CouplingParams) -> ChshResult:
    """Maximal CHSH value of the thermal state at couplings (u, v)."""
    return chsh_from_correlations(correlations(params))


def negativity_bell_diagonal(spectral: SpectralData) -> float:
    """Closed form for a Bell-diagonal state: max(0, max_a p_a - 1/2)."""
    return max(0.0, float(np.max(spectral.weights)) - 0.5)
