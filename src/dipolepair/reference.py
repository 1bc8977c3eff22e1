"""Definition-level routes: dense two-qubit matrices, eigensolves, channel
arithmetic and sphere quadrature.

Each function here builds a quantity from its definition, independently of
the closed forms of the Bell weights in `core`, so tests can hold the two
routes against each other.  This module may import the production modules;
none of them imports it.

Basis convention throughout: the computational basis is ordered
|00>, |01>, |10>, |11> with qubit A the first tensor factor.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import BellLabel, CouplingParams

HERMITIAN_INPUT_TOL = 1e-10

# slack the validators allow on a negativity and on correlation entries
VALIDATION_TOL = 1e-12

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


def require_hermitian(m, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    defect = hermiticity_defect(m)
    if defect > HERMITIAN_INPUT_TOL:
        raise ValueError(f"{name} is not Hermitian: max |m - m^dag| = {defect:.3e} "
                         f"exceeds {HERMITIAN_INPUT_TOL:.0e}")
    return m


def require_density_matrix(m, name: str = "density matrix") -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity, each within
    HERMITIAN_INPUT_TOL; return as complex array."""
    rho = require_hermitian(m, name)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > HERMITIAN_INPUT_TOL:
        raise ValueError(f"{name} must have unit trace, got {tr!r}")
    evals = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if float(evals[0]) < -HERMITIAN_INPUT_TOL:
        raise ValueError(f"{name} is not positive semidefinite: min eigenvalue {evals[0]:.3e}")
    return rho


def partial_transpose_a(rho) -> np.ndarray:
    """Partial transpose over the first qubit: out[ab, gd] = rho[gb, ad]."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit matrix, got shape {rho.shape}")
    return rho.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4).copy()


def gibbs(h) -> np.ndarray:
    """Thermal density matrix e^{-h} / Tr e^{-h} of a dimensionless Hamiltonian.

    The minimum eigenvalue is subtracted before exponentiating, so entries
    stay finite over the whole admissible coupling range instead of
    overflowing for eigenvalue spreads of order 10^3.
    """
    m = require_hermitian(h)
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    w = np.exp(-(vals - float(vals.min())))
    rho = (vecs * w) @ vecs.conj().T
    rho /= float(np.trace(rho).real)
    return (rho + rho.conj().T) / 2.0


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

    Assembled from the Bell-level weights of the production core,
    `core.weights`, so that holding it against `gibbs(hamiltonian_matrix(p))`
    checks the core against the dense route:

        rho11 = rho44 = (w_PhiPlus + w_PhiMinus)/2
        rho14 = rho41 = (w_PhiPlus - w_PhiMinus)/2
        rho22 = rho33 = (w_PsiPlus + w_PsiMinus)/2
        rho23 = rho32 = (w_PsiPlus - w_PsiMinus)/2

    These combinations equal the usual hyperbolic closed forms
    (rho11 = e^{-u/6} cosh(v/2)/Z, rho14 = -e^{-u/6} sinh(v/2)/Z,
    rho22 = e^{u/6} cosh(u/6)/Z, rho23 = e^{u/6} sinh(u/6)/Z) but are
    written in a form that cannot overflow at large couplings.
    """
    w = core.weights(params.u, params.v)[0]
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


# sigma_i x sigma_j for i, j = 0..3, sigma_0 the identity
_PAULI_PAIRS = np.array([[kron(pauli(i), pauli(j)) for j in range(4)] for i in range(4)])


def fano_marginals(rho) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local Bloch vectors r, s and 3x3 correlation matrix C of a two-qubit state.

    r_j = Tr(rho sigma_j x I), s_j = Tr(rho I x sigma_j),
    C_ij = Tr(rho sigma_i x sigma_j), all taken in one contraction.
    """
    rho = require_density_matrix(rho)
    t = np.einsum("ijab,ba->ij", _PAULI_PAIRS, rho).real
    return t[1:, 0], t[0, 1:], t[1:, 1:]


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


def chsh_max_general(corr_matrix) -> float:
    """Maximal CHSH value for an arbitrary 3x3 correlation matrix."""
    c = np.asarray(corr_matrix, dtype=float)
    if c.shape != (3, 3):
        raise ValueError(f"correlation matrix must be 3x3, got shape {c.shape}")
    if not np.all(np.isfinite(c)) or float(np.max(np.abs(c))) > 1.0 + VALIDATION_TOL:
        raise ValueError("correlation entries must lie in [-1, 1]")
    gram_evals = np.linalg.eigvalsh(c.T @ c)
    m = max(float(gram_evals[-1] + gram_evals[-2]), 0.0)
    return 2.0 * math.sqrt(m)


def negativity(rho) -> NegativityResult:
    """Negativity of an arbitrary two-qubit density matrix, by definition:
    eigendecompose the partial transpose and sum the negative part."""
    rho = require_density_matrix(rho)
    evals = np.linalg.eigvalsh(partial_transpose_a(rho))
    value = float(np.sum(np.maximum(0.0, -evals)))
    return NegativityResult(value=value, pt_eigenvalues=evals)


# -- teleportation by channel arithmetic ----------------------------------

# Pauli corrections lifted to the pair; they act on the first factor
_LIFTS = np.array([kron(pauli(mu), pauli(0)) for mu in range(4)])
_BELL_PROJECTORS = {label: projector(bell_state(label)) for label in BellLabel}


@dataclass(frozen=True)
class BlochAngles:
    """Bloch-sphere direction at polar angle theta and azimuth phi, as given,
    with its ket, its density matrix (the input `channel_output` takes) and
    its unit vector: two pairs that name one direction give the same density
    and unit vector, and kets that differ only by a global phase."""

    theta: float
    phi: float

    def state(self) -> np.ndarray:
        """Qubit ket cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
        return np.array([math.cos(self.theta / 2.0),
                         cmath.exp(1j * self.phi) * math.sin(self.theta / 2.0)], dtype=complex)

    def density(self) -> np.ndarray:
        return projector(self.state())

    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )


def channel_state(weights) -> np.ndarray:
    """Bell-diagonal resource density matrix sum_a p_a |a><a| for a weight
    vector p indexed by BellLabel."""
    p = np.asarray(weights, dtype=float)
    if p.shape != (4,):
        raise ValueError(f"expected one weight per Bell state, got shape {p.shape}")
    rho = np.zeros((4, 4), dtype=complex)
    for label in BellLabel:
        rho += p[label] * _BELL_PROJECTORS[label]
    return rho


def channel_output(weights, k0: BellLabel, rho_in: np.ndarray) -> np.ndarray:
    """Teleported qubit state of an input density matrix, or of each in a
    stack (..., 2, 2) of them, by direct matrix arithmetic.

    The four flip probabilities Tr(K_mu rho) and the Pauli conjugations are
    evaluated literally; no relabeling shortcut is taken, so this route can
    back the closed-form fidelities independently.
    """
    rho = channel_state(weights)
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


def fidelity_pointwise(angles: BlochAngles, output) -> float:
    """Overlap <psi_in| rho_out |psi_in> of the teleported state with its input."""
    rho = require_density_matrix(output, name="channel output")
    psi = angles.state()
    return float((psi.conj() @ rho @ psi).real)


def average_fidelity_quadrature(weights, k0: BellLabel, order: int) -> float:
    """Sphere-averaged fidelity by explicit quadrature over input states.

    Product rule: `order`-point Gauss-Legendre in cos(theta) times a
    2*order-point uniform rule in phi.  The integrand is degree 2 in the
    Bloch components, so any order >= 2 is already exact and must agree
    with the closed form (1 + 2 p_k0)/3 to rounding.  All input states go through the
    channel arithmetic of `channel_output` in one pass.
    """
    order = int(order)
    if order < 2:
        raise ValueError(f"quadrature order must be at least 2, got {order}")
    psi, quad_weights = _product_rule(order)
    out = channel_output(weights, k0, psi[:, :, None] * psi[:, None, :].conj())
    return float(quad_weights @ np.einsum("ki,kij,kj->k", psi.conj(), out, psi).real)


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


def minimum_fidelity() -> float:
    """Best classical (measure-and-resend) average fidelity of a qubit,
    2/(1 + d) at d = 2."""
    return 2.0 / 3.0
