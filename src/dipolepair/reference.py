"""Definition-level routes: dense two-qubit matrices, eigensolves, channel
arithmetic and sphere quadrature, plus the scalar closed-form route that
the array core must equal to the bit.

Each function here builds a quantity from its definition, independently of
the closed forms of the Bell weights in `core`, so tests can hold the two
routes against each other.  The scalar route evaluates those closed forms
one float at a time through validating dataclasses.  This module may import
the production modules; none of them imports it.

Basis convention throughout: the computational basis is ordered
|00>, |01>, |10>, |11> with qubit A the first tensor factor.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CHSH_BOUNDARY_TOL,
    CHSH_CLASSICAL_BOUND,
    CHSH_QUANTUM_BOUND,
    SEPARABLE_NEGATIVITY_TOL,
    BellLabel,
    CouplingParams,
    Region,
)
from .scan import ScanRecord

HERMITIAN_INPUT_TOL = 1e-10

# slack every validator allows on derived weights, correlations and measures
VALIDATION_TOL = 1e-12

# stand-in energy for an exactly zero weight: exp(-800) underflows to 0.0,
# so the pair (E, w) stays self-consistent while remaining finite
_ZERO_WEIGHT_ENERGY = 800.0

CLASSICAL_DIMENSION = 2

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
_LIFTS = np.array([kron(pauli(mu), pauli(0)) for mu in range(4)])
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
    return _teleport(spectral, k0, angles.density())


def _teleport(spectral: SpectralData, k0: BellLabel, rho_in: np.ndarray) -> np.ndarray:
    """`channel_output` for an input density matrix, or a stack (..., 2, 2)
    of them."""
    rho = channel_state(spectral)
    seed = _BELL_PROJECTORS[BellLabel(k0)]
    flips = np.trace(_LIFTS @ seed @ _LIFTS @ rho, axis1=1, axis2=2).real.tolist()
    # every output is a density matrix exactly when the flips are a
    # probability vector: it mixes the pure states sigma_mu rho_in sigma_mu
    if min(flips) < -HERMITIAN_INPUT_TOL or abs(sum(flips) - 1.0) > HERMITIAN_INPUT_TOL:
        raise ValueError(f"flip probabilities {flips!r} are not a probability vector")
    out = np.zeros(np.shape(rho_in), dtype=complex)
    for q, s in zip(flips, _PAULI):
        out += q * (s @ rho_in @ s)
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
    with `average_fidelity` to rounding.  All input states go through the
    channel arithmetic of `channel_output` in one pass.
    """
    order = int(order)
    if order < 2:
        raise ValueError(f"quadrature order must be at least 2, got {order}")
    psi, weights = _product_rule(order)
    out = _teleport(spectral, k0, psi[:, :, None] * psi[:, None, :].conj())
    return float(weights @ np.einsum("ki,kij,kj->k", psi.conj(), out, psi).real)


@functools.lru_cache(maxsize=8)
def _product_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Input kets of the product rule, theta outer and phi inner, and their
    weights normalized to sum to 1; read-only, as the cache shares them."""
    nodes, gauss_w = np.polynomial.legendre.leggauss(order)
    n_phi = 2 * order
    psi = np.array([BlochAngles(math.acos(float(x)), 2.0 * math.pi * j / n_phi).state()
                    for x in nodes for j in range(n_phi)])
    # Gauss weights integrate to 2 over cos(theta); phi nodes carry 2*pi/n_phi:
    # dividing by 4*pi leaves 1/(2 n_phi)
    weights = np.repeat(gauss_w, n_phi) / (2.0 * n_phi)
    psi.flags.writeable = weights.flags.writeable = False
    return psi, weights


# -- the scalar closed-form route -------------------------------------------

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
