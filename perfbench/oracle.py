"""Definition-level oracle the benchmark checks program outputs against.

It imports nothing from `dipolepair`, so the package may move or delete its
own reference routes without changing what the benchmark accepts.  Every
quantity is computed from the 4x4 Hamiltonian by definition, batched over
arrays of couplings:

    H = -(1/3) sum_i T_ii S_i (x) S_i,  T = diag(u - 3v, u + 3v, -2u),  S = sigma/2
    rho = sum_k exp(-(E_k - E_min)) |k><k| / Z          (eigensolve, Gibbs weights)
    negativity = sum of the negative eigenvalues of rho^{T_A}, sign flipped
    chsh = 2 sqrt(m1 + m2), m1 >= m2 the largest eigenvalues of C^T C,
           C_ij = Tr(rho sigma_i (x) sigma_j)
    fidelity = (1 + 2 w_max) / 3, w_max the largest Bell-state overlap <B|rho|B>

Basis order is |00>, |01>, |10>, |11>, qubit A first.
"""
from __future__ import annotations

import numpy as np

SEPARABLE_NEGATIVITY_TOL = 1e-12
NONLOCAL_CHSH_TOL = 1e-12

BELL_LABELS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")
REGIONS = ("separable", "entangled_local", "nonlocal")

_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
# sigma_i (x) sigma_j for i, j in x, y, z
_SIGMA_PAIRS = np.array([[np.kron(a, b) for b in _PAULIS] for a in _PAULIS])

_R = 1.0 / np.sqrt(2.0)
# rows in BELL_LABELS order
_BELL = np.array(
    [[_R, 0, 0, _R], [_R, 0, 0, -_R], [0, _R, _R, 0], [0, _R, -_R, 0]]
)


def hamiltonian(u, v) -> np.ndarray:
    """Interaction Hamiltonian in units of k_B T, shape (N, 4, 4)."""
    u = np.asarray(u, dtype=float).reshape(-1, 1, 1)
    v = np.asarray(v, dtype=float).reshape(-1, 1, 1)
    ss = [(np.kron(p, p) / 4.0).real for p in _PAULIS]  # S_i (x) S_i is real
    return -((u - 3.0 * v) * ss[0] + (u + 3.0 * v) * ss[1] - 2.0 * u * ss[2]) / 3.0


def thermal_state(u, v) -> np.ndarray:
    """Gibbs state exp(-H)/Z by eigensolve, shape (N, 4, 4)."""
    energies, vectors = np.linalg.eigh(hamiltonian(u, v))
    weights = np.exp(-(energies - energies[:, :1]))  # eigh sorts ascending
    weights /= weights.sum(axis=1, keepdims=True)
    return np.einsum("nk,nik,njk->nij", weights, vectors, vectors)


def evaluate(u, v) -> dict[str, np.ndarray]:
    """Every reported quantity at each (u[n], v[n]), by definition."""
    rho = thermal_state(u, v)
    n = rho.shape[0]
    pt = rho.reshape(n, 2, 2, 2, 2).transpose(0, 3, 2, 1, 4).reshape(n, 4, 4)
    negativity = np.maximum(0.0, -np.linalg.eigvalsh(pt)).sum(axis=1)
    corr = np.einsum("nab,ijba->nij", rho, _SIGMA_PAIRS).real
    gram = np.linalg.eigvalsh(np.einsum("nki,nkj->nij", corr, corr))
    chsh = 2.0 * np.sqrt(np.maximum(gram[:, -1] + gram[:, -2], 0.0))
    bell_weights = np.einsum("ak,nkl,al->na", _BELL, rho, _BELL)
    dominant = np.argmax(bell_weights, axis=1)  # first maximum: canonical tie order
    w_max = bell_weights[np.arange(n), dominant]
    top2 = np.sort(bell_weights, axis=1)[:, -2:]
    region = np.where(
        negativity < SEPARABLE_NEGATIVITY_TOL, 0,
        np.where(chsh > 2.0 + NONLOCAL_CHSH_TOL, 2, 1),
    )
    return {
        "chsh": chsh,
        "negativity": negativity,
        "fidelity": (1.0 + 2.0 * w_max) / 3.0,
        "dominant_weight": w_max,
        "dominant": dominant,
        "label_margin": top2[:, 1] - top2[:, 0],
        "region": region,
    }


def boundary_field(quantity: str, u, v) -> np.ndarray:
    """Signed field whose zero set is the named critical contour."""
    q = evaluate(u, v)
    if quantity == "chsh":
        return q["chsh"] - 2.0
    if quantity == "negativity":
        return q["dominant_weight"] - 0.5
    if quantity == "fidelity":
        return q["fidelity"] - 2.0 / 3.0
    raise ValueError(f"unknown boundary quantity {quantity!r}")


def self_check() -> list[str]:
    """Problems with the oracle itself, judged against the documented values
    at (u, v) = (3, 1): CHSH 1.3070..., negativity 0.0344..., best seed Psi+."""
    q = evaluate([3.0], [1.0])
    problems = []
    if not 1.3070 <= q["chsh"][0] < 1.3071:
        problems.append(f"oracle CHSH at (3, 1) is {q['chsh'][0]!r}, expected 1.3070...")
    if not 0.0344 <= q["negativity"][0] < 0.0345:
        problems.append(
            f"oracle negativity at (3, 1) is {q['negativity'][0]!r}, expected 0.0344..."
        )
    if BELL_LABELS[q["dominant"][0]] != "psi_plus":
        problems.append(
            f"oracle best seed at (3, 1) is {BELL_LABELS[q['dominant'][0]]}, expected psi_plus"
        )
    return problems
