"""Tests for the definition-level routes of `dipolepair.reference` and for
the closed forms of `core` held against them: dense two-qubit linear
algebra, Gibbs states and Bloch-sphere angles; the dipolar Hamiltonian and
thermal state as matrices; CHSH and negativity by definition; and
teleportation by channel arithmetic and sphere quadrature.

Expected numbers were frozen before the routes were written, from
independent oracles: the thermal-state elements from scipy expm of the 4x4
Hamiltonian, the partial-transpose spectrum from an eigendecomposition of
that state, and the teleported outputs and fidelities from explicit Kraus
conjugations and a 400 x 400 dense sphere quadrature.
"""
import math

import numpy as np
import pytest

from dipolepair import core
from dipolepair.core import CHSH_CLASSICAL_BOUND, CHSH_QUANTUM_BOUND, BellLabel, CouplingParams
from dipolepair.reference import (
    BlochAngles,
    NegativityResult,
    average_fidelity_quadrature,
    bell_state,
    channel_output,
    channel_state,
    chsh_max_general,
    fano_marginals,
    fidelity_pointwise,
    gibbs,
    hamiltonian_from_tensor,
    hamiltonian_matrix,
    hermiticity_defect,
    kron,
    minimum_fidelity,
    negativity,
    partial_transpose_a,
    pauli,
    projector,
    require_density_matrix,
    require_hermitian,
    thermal_state,
)
from test_core import (
    B31,
    F31,
    N31,
    chsh,
    closed_negativity,
    correlations,
    energies,
    fidelity_and_seed,
    random_params,
    weights,
    weights_at,
)

# frozen oracle values at (u, v) = (3, 1), unless named otherwise
RHO31 = {"r11": 0.13447071068499755, "r22": 0.36552928931500245,
         "r23": 0.16891735607352057, "r14": -0.06214122255648428}
PT31 = [-0.03444664538852305, 0.3033880667585181, 0.3033880667585181,
        0.42767051187148664]
FPOINT31 = 0.6067761335170361
BLOCHX31 = 0.21355226703407246
# best fidelity at (u, v) = (-6, 0)
BEST_MINUS6 = 0.6090813176133083

# sigma_mu (x) I maps the seed Bell state to these labels, mu = 0..3
SEED_RELABELING = {
    BellLabel.PSI_PLUS: (BellLabel.PSI_PLUS, BellLabel.PHI_PLUS,
                         BellLabel.PHI_MINUS, BellLabel.PSI_MINUS),
    BellLabel.PHI_PLUS: (BellLabel.PHI_PLUS, BellLabel.PSI_PLUS,
                         BellLabel.PSI_MINUS, BellLabel.PHI_MINUS),
    BellLabel.PHI_MINUS: (BellLabel.PHI_MINUS, BellLabel.PSI_MINUS,
                          BellLabel.PSI_PLUS, BellLabel.PHI_PLUS),
    BellLabel.PSI_MINUS: (BellLabel.PSI_MINUS, BellLabel.PHI_MINUS,
                          BellLabel.PHI_PLUS, BellLabel.PSI_PLUS),
}

PURE_PSI_PLUS = [0.0, 0.0, 1.0, 0.0]


def random_hermitian(rng, n=4, scale=1.0):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (m + m.conj().T) / 2.0


def random_weights(rng):
    return rng.dirichlet(np.ones(4))


def correlation_matrix(p):
    """3x3 correlation matrix of the dense thermal state."""
    return fano_marginals(thermal_state(p))[2]


def bloch_vector(rho):
    return np.array([float(np.trace(rho @ pauli(k)).real) for k in (1, 2, 3)])


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

    def test_covariant_under_unitary_with_degenerate_spectrum(self):
        # the eigenbasis of a degenerate level is not unique; the state is
        rng = np.random.default_rng(33)
        h = np.diag([1.0, 1.0, 0.0, -2.0]).astype(complex)
        for _ in range(10):
            u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
            np.testing.assert_allclose(
                gibbs(u @ h @ u.conj().T), u @ gibbs(h) @ u.conj().T, atol=1e-12
            )

    def test_large_spread_stays_finite(self):
        rho = gibbs(np.diag([1000.0, 0.0, -1000.0, 500.0]))
        assert np.all(np.isfinite(rho))
        np.testing.assert_allclose(np.diag(rho).real, [0.0, 0.0, 1.0, 0.0], atol=1e-300)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            gibbs(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            gibbs(np.zeros((2, 3)))

    def test_diagonal_hamiltonian_gives_boltzmann_weights(self):
        levels = np.array([3.0, 1.0, 2.0, 0.0])
        boltzmann = np.exp(-levels)
        np.testing.assert_allclose(
            gibbs(np.diag(levels)), np.diag(boltzmann / boltzmann.sum()), atol=1e-15
        )

    def test_sigma_x(self):
        # e^{-sigma_x} / Tr = (I - tanh(1) sigma_x) / 2
        np.testing.assert_allclose(
            gibbs(pauli(1)), (pauli(0) - math.tanh(1.0) * pauli(1)) / 2.0, atol=1e-15
        )

    def test_degenerate_levels_share_weight(self):
        # eigenvalue 1 is twofold degenerate; any basis of its plane gives
        # the same state
        e = math.exp(-1.0)
        np.testing.assert_allclose(
            gibbs(np.diag([1.0, 1.0, 0.0])),
            np.diag([e, e, 1.0]) / (1.0 + 2.0 * e),
            atol=1e-15,
        )

    def test_deterministic_on_repeat(self):
        h = random_hermitian(np.random.default_rng(22), 4, scale=3.0)
        np.testing.assert_array_equal(gibbs(h), gibbs(h))

    def test_slightly_asymmetric_input_gives_an_exactly_hermitian_state(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            h = random_hermitian(rng, 4, scale=3.0)
            skew = 1e-12 * np.triu(rng.standard_normal((4, 4)), 1)
            rho = gibbs(h + skew)
            np.testing.assert_array_equal(rho, rho.conj().T)
            np.testing.assert_allclose(rho, gibbs(h), atol=1e-11)


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
        np.testing.assert_allclose(BlochAngles(0.0, 0.0).state(), [1.0, 0.0])
        np.testing.assert_allclose(BlochAngles(math.pi, 0.0).state(), [0.0, 1.0], atol=1e-16)
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(BlochAngles(math.pi / 2, 0.0).state(), [s, s])

    def test_matches_bloch_vector(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            theta = rng.uniform(-8.0, 8.0)
            phi = rng.uniform(-8.0, 8.0)
            psi = BlochAngles(theta, phi).state()
            rho = projector(psi)
            n = [float(np.trace(rho @ pauli(k)).real) for k in (1, 2, 3)]
            expected = [
                math.sin(theta) * math.cos(phi),
                math.sin(theta) * math.sin(phi),
                math.cos(theta),
            ]
            np.testing.assert_allclose(n, expected, atol=1e-12)

    def test_normalized(self):
        psi = BlochAngles(2.3, -4.5).state()
        assert abs(np.vdot(psi, psi).real - 1.0) < 1e-15


class TestHamiltonian:
    def test_zero_couplings(self):
        np.testing.assert_array_equal(
            hamiltonian_matrix(CouplingParams(0.0, 0.0)), np.zeros((4, 4))
        )

    def test_secular_part(self):
        h = hamiltonian_matrix(CouplingParams(6.0, 0.0))
        np.testing.assert_allclose(
            h, np.array([[1, 0, 0, 0], [0, -1, -1, 0], [0, -1, -1, 0], [0, 0, 0, 1]])
        )

    def test_transverse_part(self):
        h = hamiltonian_matrix(CouplingParams(0.0, 2.0))
        np.testing.assert_allclose(h, np.fliplr(np.diag([1.0, 0.0, 0.0, 1.0])))

    def test_hermitian(self):
        h = hamiltonian_matrix(CouplingParams(-4.5, 7.25))
        np.testing.assert_array_equal(h, h.conj().T)

    def test_tensor_route_agrees(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_params(rng)
            a, b = hamiltonian_matrix(p), hamiltonian_from_tensor(p)
            assert float(np.max(np.abs(a - b))) < 1e-14

    def test_eigenbasis_is_bell(self):
        # H = sum_a E_a |a><a| with the documented energies
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = random_params(rng)
            e = energies(p)
            rebuilt = sum(
                e[label] * projector(bell_state(label)) for label in BellLabel
            )
            np.testing.assert_allclose(hamiltonian_matrix(p), rebuilt, atol=1e-12)


class TestSpectrum:
    def test_energies(self):
        p = CouplingParams(3.0, 1.0)
        np.testing.assert_allclose(energies(p), [1.0, 0.0, -1.0, 0.0])
        np.testing.assert_allclose(
            np.linalg.eigvalsh(hamiltonian_matrix(p)), [-1.0, 0.0, 0.0, 1.0],
            atol=1e-15,
        )


class TestThermalState:
    def test_infinite_temperature(self):
        np.testing.assert_allclose(
            thermal_state(CouplingParams(0.0, 0.0)), np.eye(4) / 4
        )

    def test_frozen_elements(self):
        rho = thermal_state(CouplingParams(3.0, 1.0))
        assert rho[0, 0].real == pytest.approx(RHO31["r11"], abs=1e-14)
        assert rho[1, 1].real == pytest.approx(RHO31["r22"], abs=1e-14)
        assert rho[1, 2].real == pytest.approx(RHO31["r23"], abs=1e-14)
        assert rho[0, 3].real == pytest.approx(RHO31["r14"], abs=1e-14)

    def test_structure(self):
        rho = thermal_state(CouplingParams(-2.0, 3.5))
        np.testing.assert_array_equal(rho, rho.conj().T)
        assert rho[0, 0] == rho[3, 3] and rho[1, 1] == rho[2, 2]
        assert rho[0, 1] == 0.0 and rho[2, 0] == 0.0 and rho[3, 1] == 0.0

    def test_matches_gibbs_route(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            p = random_params(rng)
            diff = np.max(np.abs(thermal_state(p) - gibbs(hamiltonian_matrix(p))))
            assert float(diff) < 1e-12

    def test_matches_projector_sum(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            p = random_params(rng)
            w = weights(p)
            rebuilt = sum(w[label] * projector(bell_state(label)) for label in BellLabel)
            np.testing.assert_allclose(thermal_state(p), rebuilt, atol=1e-14)


class TestCorrelations:
    def test_weight_roundtrip(self):
        # the correlation matrix of the dense thermal state gives back the
        # core's weights through the vertices of the Bell tetrahedron
        rng = np.random.default_rng(30)
        for _ in range(50):
            p = random_params(rng)
            c1, c2, c3 = np.diag(fano_marginals(thermal_state(p))[2])
            bell = np.array([1 + c1 - c2 + c3, 1 - c1 + c2 + c3,
                             1 + c1 + c2 - c3, 1 - c1 - c2 - c3]) / 4
            np.testing.assert_allclose(bell, weights(p), atol=1e-14)


class TestFanoMarginals:
    def test_maximally_mixed(self):
        r, s, c = fano_marginals(np.eye(4) / 4)
        np.testing.assert_allclose(r, 0.0, atol=1e-15)
        np.testing.assert_allclose(s, 0.0, atol=1e-15)
        np.testing.assert_allclose(c, np.zeros((3, 3)), atol=1e-15)

    def test_bell_state(self):
        r, s, c = fano_marginals(projector(bell_state(BellLabel.PSI_PLUS)))
        np.testing.assert_allclose(r, 0.0, atol=1e-15)
        np.testing.assert_allclose(s, 0.0, atol=1e-15)
        np.testing.assert_allclose(c, np.diag([1.0, 1.0, -1.0]), atol=1e-15)

    def test_thermal_state_is_bell_diagonal(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            p = random_params(rng)
            r, s, c = fano_marginals(thermal_state(p))
            np.testing.assert_allclose(r, 0.0, atol=1e-13)
            np.testing.assert_allclose(s, 0.0, atol=1e-13)
            np.testing.assert_allclose(c, np.diag(correlations(p)), atol=1e-13)

    def test_rejects_non_density(self):
        with pytest.raises(ValueError):
            fano_marginals(np.eye(4))


class TestChshGeneral:
    def test_zero_matrix(self):
        assert chsh_max_general(np.zeros((3, 3))) == 0.0

    def test_bell_state_saturates_quantum_bound(self):
        value = chsh_max_general(np.diag([1.0, 1.0, -1.0]))
        assert value == pytest.approx(CHSH_QUANTUM_BOUND, abs=1e-14)

    def test_frozen_thermal_value(self):
        value = chsh_max_general(correlation_matrix(CouplingParams(3.0, 1.0)))
        assert value == pytest.approx(B31, abs=1e-13)
        assert value < CHSH_CLASSICAL_BOUND

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            chsh_max_general(np.zeros((2, 2)))

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            chsh_max_general(1.5 * np.eye(3))

    def test_non_diagonal_matrix(self):
        # a rotation cannot change the singular values, hence not the value
        c = np.diag([0.9, 0.4, -0.2])
        angle = 0.7
        rot = np.array(
            [
                [math.cos(angle), -math.sin(angle), 0.0],
                [math.sin(angle), math.cos(angle), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        a = chsh_max_general(c)
        b = chsh_max_general(rot @ c @ rot.T)
        assert a == pytest.approx(b, abs=1e-13)


class TestChshClosedForm:
    def test_agrees_with_general_route(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            p = random_params(rng)
            general = chsh_max_general(correlation_matrix(p))
            assert abs(chsh(p) - general) < 1e-12

    def test_drops_smallest_component(self):
        # 2 sqrt of the two largest c_i^2: the closed form the core uses
        expected = 2.0 * math.sqrt(0.6 ** 2 + 0.3 ** 2)
        assert chsh_max_general(np.diag([0.6, 0.3, -0.1])) == pytest.approx(expected, abs=1e-15)


class TestNegativity:
    def test_maximally_mixed_is_zero(self):
        res = negativity(np.eye(4) / 4)
        assert res.value == 0.0

    def test_bell_state_is_half(self):
        res = negativity(projector(bell_state(BellLabel.PSI_PLUS)))
        assert res.value == pytest.approx(0.5, abs=1e-14)
        np.testing.assert_allclose(
            res.pt_eigenvalues, [-0.5, 0.5, 0.5, 0.5], atol=1e-14
        )

    def test_frozen_thermal_value(self):
        res = negativity(thermal_state(CouplingParams(3.0, 1.0)))
        assert res.value == pytest.approx(N31, abs=1e-13)
        np.testing.assert_allclose(res.pt_eigenvalues, PT31, atol=1e-13)

    def test_rejects_non_density(self):
        with pytest.raises(ValueError):
            negativity(np.eye(4))
        with pytest.raises(ValueError):
            negativity(np.diag([1.5, -0.5, 0.0, 0.0]))

    def test_partial_transpose_trace_norm(self):
        # sum |lambda| is 1 for a separable state and 2 for a Bell state
        assert np.sum(np.abs(negativity(np.eye(4) / 4).pt_eigenvalues)) == pytest.approx(1.0)
        for label in BellLabel:
            evals = negativity(projector(bell_state(label))).pt_eigenvalues
            assert np.sum(np.abs(evals)) == pytest.approx(2.0, abs=1e-14)

    def test_result_rejects_inconsistent_spectrum(self):
        # a value other than the negative sum, and a spectrum whose
        # half trace-norm excess differs from its negative sum
        with pytest.raises(ValueError, match="inconsistent"):
            NegativityResult(value=0.0, pt_eigenvalues=[-0.5, 0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match="inconsistent"):
            NegativityResult(value=0.5, pt_eigenvalues=[-0.5, 0.5, 0.5, 1.5])

    def test_separable_mixture_scores_zero(self):
        # equal mixture of |00> and |11> is classically correlated only
        rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        assert negativity(rho).value == pytest.approx(0.0, abs=1e-15)


class TestNegativityBellDiagonal:
    def test_agrees_with_definition(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            p = random_params(rng)
            full = negativity(thermal_state(p)).value
            assert abs(closed_negativity(p) - full) < 1e-12

    def test_partial_transpose_spectrum_is_half_minus_weights(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            p = random_params(rng)
            evals = negativity(thermal_state(p)).pt_eigenvalues
            expected = np.sort(0.5 - core.weights(p.u, p.v)[0])
            np.testing.assert_allclose(evals, expected, atol=1e-13)


class TestBlochAngles:
    def test_density_is_pure(self):
        rho = BlochAngles(1.1, 2.2).density()
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-15)
        assert np.trace(rho).real == pytest.approx(1.0)

    def test_unit_vector_matches_density(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            ang = BlochAngles(rng.uniform(-7, 7), rng.uniform(-7, 7))
            np.testing.assert_allclose(
                bloch_vector(ang.density()), ang.unit_vector(), atol=1e-13
            )


    def test_equivalent_angles_name_one_state(self):
        # negative theta, theta beyond pi and a negative phi, each against
        # the canonical pair of the same direction
        for given, canonical in (((-1.0, 0.5), (1.0, 0.5 + math.pi)),
                                 ((math.pi + 0.25, 0.0), (math.pi - 0.25, math.pi)),
                                 ((0.5, -0.25), (0.5, 2.0 * math.pi - 0.25))):
            a, b = BlochAngles(*given), BlochAngles(*canonical)
            assert (a.theta, a.phi) == given
            np.testing.assert_allclose(a.density(), b.density(), atol=1e-15)
            np.testing.assert_allclose(a.unit_vector(), b.unit_vector(), atol=1e-15)
            # the kets differ by a global phase only
            assert abs(np.vdot(a.state(), b.state())) == pytest.approx(1.0, abs=1e-15)


class TestChannelState:
    def test_matches_weighted_projectors(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            w = random_weights(rng)
            expected = sum(w[label] * projector(bell_state(label)) for label in BellLabel)
            np.testing.assert_allclose(channel_state(w), expected, atol=1e-15)


class TestChannelOutput:
    def test_pure_resource_teleports_exactly(self):
        rng = np.random.default_rng(64)
        for _ in range(20):
            ang = BlochAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            out = channel_output(PURE_PSI_PLUS, BellLabel.PSI_PLUS, ang.density())
            np.testing.assert_allclose(out, ang.density(), atol=1e-14)

    def test_uniform_resource_depolarizes(self):
        out = channel_output(weights_at(0.0, 0.0), BellLabel.PSI_PLUS,
                             BlochAngles(1.0, 2.0).density())
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-15)

    def test_frozen_equatorial_output(self):
        ang = BlochAngles(math.pi / 2, 0.0)
        out = channel_output(weights_at(3.0, 1.0), BellLabel.PSI_PLUS, ang.density())
        assert bloch_vector(out)[0] == pytest.approx(BLOCHX31, abs=1e-13)
        assert fidelity_pointwise(ang, out) == pytest.approx(FPOINT31, abs=1e-13)

    def test_bloch_contraction_coefficients(self):
        # output Bloch vector is (l1 n1, l2 n2, l3 n3) with
        # l_j = 2 (q_0 + q_j) - 1 and q_mu the relabeled seed weights
        rng = np.random.default_rng(65)
        for _ in range(100):
            w = random_weights(rng)
            for k0, relabeled in SEED_RELABELING.items():
                q = w[list(relabeled)]
                lam = 2.0 * (q[0] + q[1:]) - 1.0
                ang = BlochAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
                out = channel_output(w, k0, ang.density())
                np.testing.assert_allclose(
                    bloch_vector(out), lam * ang.unit_vector(), atol=1e-12
                )

    def test_single_flip_conjugates_by_one_pauli(self):
        # all weight on the seed relabeled by sigma_mu leaves one correction:
        # the output is sigma_mu rho sigma_mu, which fixes the mu axis only
        rng = np.random.default_rng(66)
        for mu, label in enumerate(SEED_RELABELING[BellLabel.PHI_PLUS]):
            w = np.zeros(4)
            w[label] = 1.0
            for _ in range(5):
                ang = BlochAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
                s = pauli(mu)
                out = channel_output(w, BellLabel.PHI_PLUS, ang.density())
                np.testing.assert_allclose(out, s @ ang.density() @ s, atol=1e-14)
        x_eigenstate = BlochAngles(math.pi / 2, 0.0)
        w = np.zeros(4)
        w[BellLabel.PSI_PLUS] = 1.0
        out = channel_output(w, BellLabel.PHI_PLUS, x_eigenstate.density())
        np.testing.assert_allclose(out, x_eigenstate.density(), atol=1e-15)

    def test_invalid_weights_rejected(self):
        # a negative weight, one too few, and a sum other than 1
        for w in ([0.7, 0.5, -0.2, 0.0], [0.5, 0.5, 0.0], [0.3, 0.3, 0.3, 0.3]):
            with pytest.raises(ValueError):
                channel_output(w, BellLabel.PSI_PLUS, BlochAngles(1.0, 2.0).density())

    def test_stack_matches_one_at_a_time(self):
        rng = np.random.default_rng(65)
        w = random_weights(rng)
        stack = np.array([
            BlochAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)).density()
            for _ in range(6)
        ]).reshape(2, 3, 2, 2)
        out = channel_output(w, BellLabel.PHI_MINUS, stack)
        assert out.shape == (2, 3, 2, 2)
        for index in np.ndindex(2, 3):
            np.testing.assert_allclose(
                out[index], channel_output(w, BellLabel.PHI_MINUS, stack[index]), atol=1e-15
            )

    def test_mixed_inputs_map_linearly(self):
        # the channel is unital, and a mixture of inputs goes to the same
        # mixture of outputs
        rng = np.random.default_rng(68)
        for label in BellLabel:
            w = random_weights(rng)
            np.testing.assert_allclose(
                channel_output(w, label, np.eye(2) / 2), np.eye(2) / 2, atol=1e-15
            )
            a, b = (BlochAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)).density()
                    for _ in range(2))
            np.testing.assert_allclose(
                channel_output(w, label, 0.3 * a + 0.7 * b),
                0.3 * channel_output(w, label, a) + 0.7 * channel_output(w, label, b),
                atol=1e-15,
            )


class TestFidelityPointwise:
    def test_perfect_output(self):
        ang = BlochAngles(0.4, 5.0)
        assert fidelity_pointwise(ang, ang.density()) == pytest.approx(1.0)

    def test_depolarized_output(self):
        assert fidelity_pointwise(BlochAngles(1.0, 1.0), np.eye(2) / 2) == pytest.approx(0.5)

    def test_rejects_non_density_output(self):
        with pytest.raises(ValueError):
            fidelity_pointwise(BlochAngles(0.0, 0.0), np.eye(2))


class TestAverageFidelity:
    def test_affine_in_seed_weight(self):
        # the sphere average is (1 + 2 p_k0)/3 for every seed k0
        rng = np.random.default_rng(66)
        for _ in range(50):
            w = random_weights(rng)
            for label in BellLabel:
                f = average_fidelity_quadrature(w, label, 2)
                assert f == pytest.approx((1.0 + 2.0 * w[label]) / 3.0, abs=1e-13)
                assert 1.0 / 3.0 - 1e-13 <= f <= 1.0 + 1e-13


class TestQuadrature:
    def test_exact_at_minimal_order(self):
        q = average_fidelity_quadrature(weights_at(3.0, 1.0), BellLabel.PSI_PLUS, 2)
        assert q == pytest.approx(F31, abs=1e-12)

    def test_uniform_resource(self):
        q = average_fidelity_quadrature(weights_at(0.0, 0.0), BellLabel.PHI_MINUS, 3)
        assert q == pytest.approx(0.5, abs=1e-13)

    def test_pure_resource(self):
        q = average_fidelity_quadrature([1.0, 0.0, 0.0, 0.0], BellLabel.PHI_PLUS, 2)
        assert q == pytest.approx(1.0, abs=1e-13)

    def test_order_insensitive_once_exact(self):
        w = weights_at(-2.0, 3.0)
        a = average_fidelity_quadrature(w, BellLabel.PHI_PLUS, 2)
        b = average_fidelity_quadrature(w, BellLabel.PHI_PLUS, 5)
        assert a == pytest.approx(b, abs=1e-13)

    def test_insufficient_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            average_fidelity_quadrature(weights_at(1.0, 1.0), BellLabel.PSI_PLUS, 1)


class TestBestFidelity:
    def test_frozen_thermal_report(self):
        best, seed = fidelity_and_seed(3.0, 1.0)
        assert seed is BellLabel.PSI_PLUS
        assert best == pytest.approx(F31, abs=1e-14)
        assert best > minimum_fidelity()

    def test_degenerate_doublet_stays_classical(self):
        best, seed = fidelity_and_seed(-6.0, 0.0)
        assert best == pytest.approx(BEST_MINUS6, abs=1e-14)
        assert best < minimum_fidelity()
        assert seed is BellLabel.PHI_PLUS  # tie falls to canonical order

    def test_uniform_resource_tie(self):
        best, seed = fidelity_and_seed(0.0, 0.0)
        assert best == pytest.approx(0.5)
        assert seed is BellLabel.PHI_PLUS
        assert best < minimum_fidelity()

    def test_best_is_max_over_all_seeds(self):
        # the core's fidelity is the best of the four seeds' sphere averages,
        # reached at its dominant label
        rng = np.random.default_rng(67)
        for _ in range(100):
            u, v = rng.uniform(-12.0, 12.0, 2).tolist()
            best, seed = fidelity_and_seed(u, v)
            quads = [average_fidelity_quadrature(weights_at(u, v), label, 2) for label in BellLabel]
            assert best == pytest.approx(max(quads), abs=1e-13)
            assert quads[seed] == max(quads)


class TestMinimumFidelity:
    def test_qubit_value(self):
        assert minimum_fidelity() == 2.0 / 3.0

    def test_classically_correlated_resource_reaches_it(self):
        # an even mix of Psi+ and Psi- is (|01><01| + |10><10|)/2, separable,
        # and teleports at the classical bound
        w = [0.0, 0.0, 0.5, 0.5]
        assert negativity(channel_state(w)).value == pytest.approx(0.0, abs=1e-15)
        q = average_fidelity_quadrature(w, BellLabel.PSI_PLUS, 3)
        assert q == pytest.approx(minimum_fidelity(), abs=1e-14)
