"""Tests for the dense two-qubit linear algebra of `dipolepair.reference`:
Pauli matrices, tensor products, Bell states, Hermitian eigensolves,
partial transpose, trace norm, Gibbs states and Bloch-sphere angles."""
import math

import numpy as np
import pytest

from dipolepair.dipolar import BellLabel
from dipolepair.reference import (
    EigenSystem,
    bell_state,
    bloch_to_state,
    gibbs,
    hermitian_eig,
    hermiticity_defect,
    kron,
    partial_transpose_a,
    pauli,
    projector,
    reduce_sphere_angles,
    require_density_matrix,
    require_hermitian,
    trace_norm_hermitian,
)


def random_hermitian(rng, n=4, scale=1.0):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (m + m.conj().T) / 2.0


class TestPauli:
    def test_identity(self):
        np.testing.assert_array_equal(pauli(0), np.eye(2))

    def test_sigma_y(self):
        np.testing.assert_array_equal(pauli(2), np.array([[0, -1j], [1j, 0]]))

    def test_algebra(self):
        # hermitian, unitary, traceless for the three proper Paulis
        for k in (1, 2, 3):
            s = pauli(k)
            np.testing.assert_allclose(s, s.conj().T)
            np.testing.assert_allclose(s @ s, np.eye(2), atol=1e-15)
            assert abs(np.trace(s)) == 0.0

    def test_bad_index(self):
        with pytest.raises(ValueError):
            pauli(4)
        with pytest.raises(ValueError):
            pauli(-1)


class TestKron:
    def test_zz_diagonal(self):
        np.testing.assert_allclose(kron(pauli(3), pauli(3)), np.diag([1, -1, -1, 1]))

    def test_xx_antidiagonal(self):
        np.testing.assert_allclose(kron(pauli(1), pauli(1)), np.fliplr(np.eye(4)))

    def test_first_factor_is_first_argument(self):
        # sigma_z (x) I is diagonal (1, 1, -1, -1) in the |00>,|01>,|10>,|11> order
        np.testing.assert_allclose(kron(pauli(3), pauli(0)), np.diag([1, 1, -1, -1]))

    def test_mixed_product(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
            c, d = random_hermitian(rng, 2), random_hermitian(rng, 2)
            np.testing.assert_allclose(
                kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12
            )


class TestBellStates:
    def test_vectors(self):
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(bell_state(BellLabel.PSI_PLUS), [0, s, s, 0])
        np.testing.assert_allclose(bell_state(BellLabel.PHI_MINUS), [s, 0, 0, -s])

    def test_orthonormal(self):
        basis = np.column_stack([bell_state(label) for label in BellLabel])
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(4), atol=1e-15)

    def test_canonical_order(self):
        assert [label.name for label in sorted(BellLabel)] == [
            "PHI_PLUS", "PHI_MINUS", "PSI_PLUS", "PSI_MINUS",
        ]


class TestPartialTranspose:
    def test_maximally_mixed_fixed_point(self):
        np.testing.assert_array_equal(partial_transpose_a(np.eye(4) / 4), np.eye(4) / 4)

    def test_involution(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = random_hermitian(rng, 4)
            np.testing.assert_allclose(
                partial_transpose_a(partial_transpose_a(m)), m, atol=0
            )

    def test_trace_preserved(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            m = random_hermitian(rng, 4)
            assert abs(np.trace(partial_transpose_a(m)) - np.trace(m)) < 1e-14

    def test_bell_projector_spectrum(self):
        pt = partial_transpose_a(projector(bell_state(BellLabel.PSI_PLUS)))
        np.testing.assert_allclose(
            np.linalg.eigvalsh(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-15
        )

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            partial_transpose_a(np.eye(3))


class TestRequireHermitian:
    def test_reports_measured_asymmetry(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            require_hermitian(bad)
        assert hermiticity_defect(bad) == 1.0

    def test_accepts_small_noise(self):
        m = np.eye(2) + 1e-12 * np.array([[0, 1], [0, 0]])
        require_hermitian(m)


class TestHermitianEig:
    def test_diagonal(self):
        sys = hermitian_eig(np.diag([3.0, 1.0, 2.0, 0.0]))
        np.testing.assert_allclose(sys.eigenvalues, [0.0, 1.0, 2.0, 3.0])

    def test_sigma_x(self):
        sys = hermitian_eig(pauli(1))
        np.testing.assert_allclose(sys.eigenvalues, [-1.0, 1.0])

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            m = random_hermitian(rng, 4, scale=3.0)
            sys = hermitian_eig(m)
            v = sys.eigenvectors
            np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-12)
            np.testing.assert_allclose(
                (v * sys.eigenvalues) @ v.conj().T, m, atol=1e-12
            )

    def test_deterministic_on_repeat(self):
        rng = np.random.default_rng(22)
        m = random_hermitian(rng, 4)
        a, b = hermitian_eig(m), hermitian_eig(m)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)

    def test_degenerate_tie_break(self):
        # eigenvalue 1 is twofold degenerate; columns come back in
        # lexicographic order of the (phase-fixed) vectors
        sys = hermitian_eig(np.diag([1.0, 1.0, 0.0]))
        np.testing.assert_allclose(sys.eigenvalues, [0.0, 1.0, 1.0])
        np.testing.assert_allclose(sys.eigenvectors[:, 1], [0.0, 1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(sys.eigenvectors[:, 2], [1.0, 0.0, 0.0], atol=1e-12)

    def test_phase_convention(self):
        sys = hermitian_eig(pauli(2))
        # largest-magnitude entry of each eigenvector is real positive
        for k in range(2):
            col = sys.eigenvectors[:, k]
            ref = col[int(np.argmax(np.abs(col)))]
            assert abs(ref.imag) < 1e-15 and ref.real > 0

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_is_eigensystem_type(self):
        assert isinstance(hermitian_eig(np.eye(2)), EigenSystem)


class TestTraceNorm:
    def test_density_matrix_is_one(self):
        assert trace_norm_hermitian(np.eye(4) / 4) == pytest.approx(1.0, abs=1e-14)

    def test_indefinite(self):
        assert trace_norm_hermitian(np.diag([1.0, -1.0])) == pytest.approx(2.0)

    def test_partial_transpose_of_bell_state(self):
        pt = partial_transpose_a(projector(bell_state(BellLabel.PHI_PLUS)))
        assert trace_norm_hermitian(pt) == pytest.approx(2.0, abs=1e-14)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            trace_norm_hermitian(np.array([[0.0, 2.0], [0.0, 0.0]]))


class TestGibbs:
    def test_zero_hamiltonian(self):
        np.testing.assert_allclose(gibbs(np.zeros((4, 4))), np.eye(4) / 4, atol=1e-15)

    def test_commutes_and_normalized(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            h = random_hermitian(rng, 4, scale=2.0)
            rho = gibbs(h)
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho)[0] > -1e-14
            np.testing.assert_allclose(rho @ h, h @ rho, atol=1e-12)

    def test_matches_scipy_expm(self):
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(32)
        for _ in range(10):
            h = random_hermitian(rng, 4, scale=3.0)
            direct = expm(-h)
            direct /= np.trace(direct)
            np.testing.assert_allclose(gibbs(h), direct, atol=1e-12)

    def test_large_spread_stays_finite(self):
        rho = gibbs(np.diag([1000.0, 0.0, -1000.0, 500.0]))
        assert np.all(np.isfinite(rho))
        np.testing.assert_allclose(np.diag(rho).real, [0.0, 0.0, 1.0, 0.0], atol=1e-300)


class TestDensityValidation:
    def test_accepts_bell_projector(self):
        require_density_matrix(projector(bell_state(BellLabel.PSI_MINUS)))

    def test_rejects_trace(self):
        with pytest.raises(ValueError, match="unit trace"):
            require_density_matrix(np.eye(4))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="positive"):
            require_density_matrix(np.diag([1.5, -0.5]))


class TestBlochState:
    def test_poles_and_equator(self):
        np.testing.assert_allclose(bloch_to_state(0.0, 0.0), [1.0, 0.0])
        np.testing.assert_allclose(bloch_to_state(math.pi, 0.0), [0.0, 1.0], atol=1e-16)
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(bloch_to_state(math.pi / 2, 0.0), [s, s])

    def test_matches_bloch_vector(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            theta = rng.uniform(-8.0, 8.0)
            phi = rng.uniform(-8.0, 8.0)
            psi = bloch_to_state(theta, phi)
            rho = projector(psi)
            n = [float(np.trace(rho @ pauli(k)).real) for k in (1, 2, 3)]
            expected = [
                math.sin(theta) * math.cos(phi),
                math.sin(theta) * math.sin(phi),
                math.cos(theta),
            ]
            np.testing.assert_allclose(n, expected, atol=1e-12)

    def test_normalized(self):
        psi = bloch_to_state(2.3, -4.5)
        assert abs(np.vdot(psi, psi).real - 1.0) < 1e-15


class TestAngleReduction:
    def test_already_canonical(self):
        assert reduce_sphere_angles(1.0, 2.0) == (1.0, 2.0)

    def test_negative_theta(self):
        t, p = reduce_sphere_angles(-1.0, 0.5)
        assert t == pytest.approx(1.0)
        assert p == pytest.approx(0.5 + math.pi)

    def test_theta_beyond_pi(self):
        t, p = reduce_sphere_angles(math.pi + 0.25, 0.0)
        assert t == pytest.approx(math.pi - 0.25)
        assert p == pytest.approx(math.pi)

    def test_phi_wraps(self):
        _, p = reduce_sphere_angles(0.5, -0.25)
        assert p == pytest.approx(2.0 * math.pi - 0.25)

    def test_range_always_canonical(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            t, p = reduce_sphere_angles(rng.uniform(-30, 30), rng.uniform(-30, 30))
            assert 0.0 <= t <= math.pi
            assert 0.0 <= p < 2.0 * math.pi
