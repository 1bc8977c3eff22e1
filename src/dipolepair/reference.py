"""Definition-level routes: dense two-qubit matrices, eigensolves, channel
arithmetic and sphere quadrature, plus the scalar closed-form route that
the array core must equal to the bit.

Each function here builds a quantity from its definition, independently of
the closed forms in `dipolar`, `measures` and `teleport`, so tests can hold
the two routes against each other.  This module may import the production
modules; none of them imports it.

Basis convention throughout: the computational basis is ordered
|00>, |01>, |10>, |11> with qubit A the first tensor factor.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import SEPARABLE_NEGATIVITY_TOL, Region
from .dipolar import (
    VALIDATION_TOL,
    BellLabel,
    CorrelationTriple,
    CouplingParams,
    SpectralData,
    spectrum,
)
from .measures import ChshResult, _chsh_result, chsh_from_correlations, negativity_bell_diagonal
from .scan import ScanRecord
from .teleport import best_fidelity

HERMITIAN_INPUT_TOL = 1e-10

# resolution used when breaking eigenvalue ties deterministically
_TIE_DECIMALS = 9

_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_BELL_VECTORS = {
    BellLabel.PHI_PLUS: np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) * _INV_SQRT2,
    BellLabel.PHI_MINUS: np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) * _INV_SQRT2,
    BellLabel.PSI_PLUS: np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) * _INV_SQRT2,
    BellLabel.PSI_MINUS: np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) * _INV_SQRT2,
}


# -- two-qubit linear algebra ---------------------------------------------

def pauli(index: int) -> np.ndarray:
    """Pauli matrix by index: 0 -> identity, 1 -> x, 2 -> y, 3 -> z."""
    if index not in (0, 1, 2, 3):
        raise ValueError(f"Pauli index must be 0..3, got {index!r}")
    return _PAULI[index].copy()


def kron(a, b) -> np.ndarray:
    """Tensor product with the first argument acting on the first factor."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def bell_state(label: BellLabel) -> np.ndarray:
    """Ket vector of the requested Bell state."""
    return _BELL_VECTORS[BellLabel(label)].copy()


def projector(vec) -> np.ndarray:
    """Rank-one projector |v><v| of a (normalized) ket."""
    v = np.asarray(vec, dtype=complex)
    return np.outer(v, v.conj())


def hermiticity_defect(m) -> float:
    """Largest entrywise deviation between m and its conjugate transpose."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T)))


def require_hermitian(m, tol: float = HERMITIAN_INPUT_TOL, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    defect = hermiticity_defect(m)
    if defect > tol:
        raise ValueError(
            f"{name} is not Hermitian: max |m - m^dag| = {defect:.3e} exceeds {tol:.0e}"
        )
    return m


def require_density_matrix(m, tol: float = HERMITIAN_INPUT_TOL, name: str = "density matrix") -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity (within tol); return as complex array."""
    rho = require_hermitian(m, tol, name)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > tol:
        raise ValueError(f"{name} must have unit trace, got {tr!r}")
    evals = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if float(evals[0]) < -tol:
        raise ValueError(f"{name} is not positive semidefinite: min eigenvalue {evals[0]:.3e}")
    return rho


def partial_transpose_a(rho) -> np.ndarray:
    """Partial transpose over the first qubit: out[ab, gd] = rho[gb, ad]."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit matrix, got shape {rho.shape}")
    return rho.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4).copy()


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition of a Hermitian matrix; column k pairs with eigenvalues[k]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _canonical_phase(col: np.ndarray) -> np.ndarray:
    # rotate so the largest-magnitude entry is real positive
    idx = int(np.argmax(np.abs(col)))
    ref = col[idx]
    if abs(ref) == 0.0:
        return col
    return col * (abs(ref) / ref)


def _tie_key(val: float, col: np.ndarray):
    ent = np.round(col, _TIE_DECIMALS)
    return (round(float(val), _TIE_DECIMALS),) + tuple(
        (float(z.real), float(z.imag)) for z in ent
    )


def hermitian_eig(m, tol: float = HERMITIAN_INPUT_TOL) -> EigenSystem:
    """Eigendecomposition with deterministic ordering.

    Eigenvalues ascend; near-degenerate values (equal after rounding to
    1e-9) are ordered by lexicographic comparison of the phase-fixed,
    rounded eigenvectors so repeated calls agree column for column.
    """
    m = require_hermitian(m, tol)
    sym = (m + m.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    cols = [_canonical_phase(vecs[:, k]) for k in range(vecs.shape[1])]
    order = sorted(range(len(vals)), key=lambda k: _tie_key(vals[k], cols[k]))
    return EigenSystem(
        eigenvalues=np.array([float(vals[k]) for k in order]),
        eigenvectors=np.column_stack([cols[k] for k in order]),
    )


def trace_norm_hermitian(m, tol: float = HERMITIAN_INPUT_TOL) -> float:
    """Trace norm (sum of absolute eigenvalues) of a Hermitian matrix."""
    m = require_hermitian(m, tol)
    evals = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return float(np.sum(np.abs(evals)))


def gibbs(h, tol: float = HERMITIAN_INPUT_TOL) -> np.ndarray:
    """Thermal density matrix e^{-h} / Tr e^{-h} of a dimensionless Hamiltonian.

    The minimum eigenvalue is subtracted before exponentiating, so entries
    stay finite over the whole admissible coupling range instead of
    overflowing for eigenvalue spreads of order 10^3.
    """
    sys = hermitian_eig(h, tol)
    w = np.exp(-(sys.eigenvalues - float(sys.eigenvalues.min())))
    rho = (sys.eigenvectors * w) @ sys.eigenvectors.conj().T
    rho /= float(np.trace(rho).real)
    return (rho + rho.conj().T) / 2.0


def reduce_sphere_angles(theta: float, phi: float) -> tuple[float, float]:
    """Map arbitrary (theta, phi) to the canonical patch [0, pi] x [0, 2*pi)."""
    two_pi = 2.0 * math.pi
    t = math.fmod(float(theta), two_pi)
    if t < 0.0:
        t += two_pi
    p = float(phi)
    if t > math.pi:
        # (theta, phi) and (2*pi - theta, phi + pi) point the same way
        t = two_pi - t
        p += math.pi
    p = math.fmod(p, two_pi)
    if p < 0.0:
        p += two_pi
    if p >= two_pi:
        p = 0.0
    return t, p


def bloch_to_state(theta: float, phi: float) -> np.ndarray:
    """Qubit ket cos(t/2)|0> + e^{i p} sin(t/2)|1> at Bloch angles (theta, phi)."""
    t, p = reduce_sphere_angles(theta, phi)
    return np.array(
        [math.cos(t / 2.0), cmath.exp(1j * p) * math.sin(t / 2.0)], dtype=complex
    )


# -- the dipolar pair as matrices -----------------------------------------

def hamiltonian_matrix(params: CouplingParams) -> np.ndarray:
    """Interaction Hamiltonian in the computational basis, units of k_B T."""
    u, v = params.u, params.v
    return (
        np.array(
            [
                [u, 0.0, 0.0, 3.0 * v],
                [0.0, -u, -u, 0.0],
                [0.0, -u, -u, 0.0],
                [3.0 * v, 0.0, 0.0, u],
            ],
            dtype=complex,
        )
        / 6.0
    )


def hamiltonian_from_tensor(params: CouplingParams) -> np.ndarray:
    """Same Hamiltonian assembled from the anisotropic coupling tensor.

    H = -(1/3) sum_i T_ii S_i (x) S_i with T = diag(u - 3v, u + 3v, -2u)
    and spin operators S_i = sigma_i / 2.  Built independently of
    hamiltonian_matrix so the two routes can be checked against each other.
    """
    t_diag = (params.u - 3.0 * params.v, params.u + 3.0 * params.v, -2.0 * params.u)
    h = np.zeros((4, 4), dtype=complex)
    for axis, t_ii in enumerate(t_diag, start=1):
        s = pauli(axis) / 2.0
        h -= t_ii * kron(s, s) / 3.0
    return h


def thermal_state(params: CouplingParams) -> np.ndarray:
    """Two-qubit thermal density matrix at couplings (u, v).

    Assembled from the Bell-level weights:

        rho11 = rho44 = (w_PhiPlus + w_PhiMinus)/2
        rho14 = rho41 = (w_PhiPlus - w_PhiMinus)/2
        rho22 = rho33 = (w_PsiPlus + w_PsiMinus)/2
        rho23 = rho32 = (w_PsiPlus - w_PsiMinus)/2

    These combinations equal the usual hyperbolic closed forms
    (rho11 = e^{-u/6} cosh(v/2)/Z, rho14 = -e^{-u/6} sinh(v/2)/Z,
    rho22 = e^{u/6} cosh(u/6)/Z, rho23 = e^{u/6} sinh(u/6)/Z) but are
    written in a form that cannot overflow at large couplings.
    """
    w = spectrum(params).weights
    r11 = (w[BellLabel.PHI_PLUS] + w[BellLabel.PHI_MINUS]) / 2.0
    r14 = (w[BellLabel.PHI_PLUS] - w[BellLabel.PHI_MINUS]) / 2.0
    r22 = (w[BellLabel.PSI_PLUS] + w[BellLabel.PSI_MINUS]) / 2.0
    r23 = (w[BellLabel.PSI_PLUS] - w[BellLabel.PSI_MINUS]) / 2.0
    return np.array(
        [
            [r11, 0.0, 0.0, r14],
            [0.0, r22, r23, 0.0],
            [0.0, r23, r22, 0.0],
            [r14, 0.0, 0.0, r11],
        ],
        dtype=complex,
    )


def fano_marginals(rho, tol: float = HERMITIAN_INPUT_TOL
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local Bloch vectors r, s and 3x3 correlation matrix C of a two-qubit state.

    r_j = Tr(rho sigma_j x I), s_j = Tr(rho I x sigma_j),
    C_ij = Tr(rho sigma_i x sigma_j).
    """
    rho = require_density_matrix(rho, tol)
    r = np.array(
        [float(np.trace(rho @ kron(pauli(j), pauli(0))).real) for j in (1, 2, 3)]
    )
    s = np.array(
        [float(np.trace(rho @ kron(pauli(0), pauli(j))).real) for j in (1, 2, 3)]
    )
    c = np.array(
        [
            [float(np.trace(rho @ kron(pauli(i), pauli(j))).real) for j in (1, 2, 3)]
            for i in (1, 2, 3)
        ]
    )
    return r, s, c


# -- measures by definition -----------------------------------------------

@dataclass(frozen=True)
class NegativityResult:
    """Negativity with the partial-transpose spectrum it came from."""

    value: float
    pt_eigenvalues: np.ndarray

    def __post_init__(self):
        evals = np.asarray(self.pt_eigenvalues, dtype=float)
        x = float(self.value)
        neg_sum = float(np.sum(np.maximum(0.0, -evals)))
        half_excess = (float(np.sum(np.abs(evals))) - 1.0) / 2.0
        # the two textbook expressions must agree on any unit-trace input
        if abs(x - neg_sum) > VALIDATION_TOL or abs(x - half_excess) > VALIDATION_TOL:
            raise ValueError(
                f"inconsistent negativity {x!r} for spectrum {evals!r}"
            )
        if x < -VALIDATION_TOL or x > 0.5 + VALIDATION_TOL:
            raise ValueError(f"negativity {x!r} outside [0, 1/2]")
        object.__setattr__(self, "value", x)
        object.__setattr__(self, "pt_eigenvalues", evals)


def chsh_max_general(corr_matrix) -> ChshResult:
    """Maximal CHSH value for an arbitrary 3x3 correlation matrix."""
    c = np.asarray(corr_matrix, dtype=float)
    if c.shape != (3, 3):
        raise ValueError(f"correlation matrix must be 3x3, got shape {c.shape}")
    if not np.all(np.isfinite(c)) or float(np.max(np.abs(c))) > 1.0 + VALIDATION_TOL:
        raise ValueError("correlation entries must lie in [-1, 1]")
    gram_evals = np.linalg.eigvalsh(c.T @ c)
    m = max(float(gram_evals[-1] + gram_evals[-2]), 0.0)
    return _chsh_result(2.0 * math.sqrt(m))


def negativity(rho, tol: float = HERMITIAN_INPUT_TOL) -> NegativityResult:
    """Negativity of an arbitrary two-qubit density matrix, by definition:
    eigendecompose the partial transpose and sum the negative part."""
    rho = require_density_matrix(rho, tol)
    evals = np.linalg.eigvalsh(partial_transpose_a(rho))
    value = float(np.sum(np.maximum(0.0, -evals)))
    return NegativityResult(value=value, pt_eigenvalues=evals)


# -- teleportation by channel arithmetic ----------------------------------

# Pauli corrections lifted to the pair; they act on the first factor
_LIFTS = tuple(kron(pauli(mu), pauli(0)) for mu in range(4))
_BELL_PROJECTORS = {label: projector(bell_state(label)) for label in BellLabel}


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
        rho += spectral.weight(label) * _BELL_PROJECTORS[label]
    return rho


def channel_output(spectral: SpectralData, k0: BellLabel, angles: BlochAngles) -> np.ndarray:
    """Teleported qubit state, by direct matrix arithmetic.

    The four flip probabilities Tr(K_mu rho) and the Pauli conjugations are
    evaluated literally; no relabeling shortcut is taken, so this route can
    back the closed-form fidelities independently.
    """
    rho = channel_state(spectral)
    seed = _BELL_PROJECTORS[BellLabel(k0)]
    rho_in = angles.density()
    out = np.zeros((2, 2), dtype=complex)
    for mu, lift in enumerate(_LIFTS):
        q = float(np.trace(lift @ seed @ lift @ rho).real)
        out += q * (pauli(mu) @ rho_in @ pauli(mu))
    return out


def fidelity_pointwise(angles: BlochAngles, output, tol: float = HERMITIAN_INPUT_TOL) -> float:
    """Overlap <psi_in| rho_out |psi_in> of the teleported state with its input."""
    rho = require_density_matrix(output, tol, name="channel output")
    psi = angles.state()
    return float((psi.conj() @ rho @ psi).real)


def average_fidelity_quadrature(spectral: SpectralData, k0: BellLabel, order: int) -> float:
    """Sphere-averaged fidelity by explicit quadrature over input states.

    Product rule: `order`-point Gauss-Legendre in cos(theta) times a
    2*order-point uniform rule in phi.  The integrand is degree 2 in the
    Bloch components, so any order >= 2 is already exact and must agree
    with `teleport.average_fidelity` to rounding.
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


# -- the scalar closed-form route -------------------------------------------

def scalar_record(params: CouplingParams) -> ScanRecord:
    """All reported quantities at one coupling point, one float at a time
    through the validating dataclasses: `SpectralData`, `CorrelationTriple`,
    `ChshResult` and `FidelityReport` check every derived invariant on the
    way, so a result equal to the array core's checks the core's output."""
    spectral = spectrum(params)
    chsh = chsh_from_correlations(CorrelationTriple.from_weights(spectral.weights))
    neg = negativity_bell_diagonal(spectral)
    report = best_fidelity(spectral)
    label, weight = spectral.dominant()
    if neg < SEPARABLE_NEGATIVITY_TOL:
        region = Region.SEPARABLE
    elif chsh.violating:
        region = Region.NONLOCAL
    else:
        region = Region.ENTANGLED_LOCAL
    return ScanRecord(
        u=params.u,
        v=params.v,
        chsh=chsh.value,
        negativity=neg,
        fidelity=report.best,
        dominant_weight=weight,
        dominant_label=label,
        region=region,
    )
