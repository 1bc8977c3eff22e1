"""Tests for the thermal dipolar-pair model: the couplings, Boltzmann
weights and correlations of `core` against the dense Hamiltonian and
thermal-state matrices of `reference`.

Expected numbers at (u, v) = (3, 1) and (-6, 0) were frozen from an
independent matrix-exponential computation (scipy expm of the 4x4
Hamiltonian, then projection onto the Bell basis) before the model was
written.
"""
import math

import numpy as np
import pytest

from dipolepair import core
from dipolepair.core import COUPLING_LIMIT, BellLabel, CouplingParams
from dipolepair.reference import (
    bell_state,
    fano_marginals,
    gibbs,
    hamiltonian_from_tensor,
    hamiltonian_matrix,
    hermitian_eig,
    projector,
    thermal_state,
)

# frozen oracle values at (u, v) = (3, 1)
W31 = {
    BellLabel.PHI_PLUS: 0.07232948812851325,
    BellLabel.PHI_MINUS: 0.1966119332414818,
    BellLabel.PSI_PLUS: 0.5344466453885229,
    BellLabel.PSI_MINUS: 0.1966119332414818,
}
RHO31 = {"r11": 0.13447071068499755, "r22": 0.36552928931500245,
         "r23": 0.16891735607352057, "r14": -0.06214122255648428}
C31 = (0.21355226703407254, 0.4621171572600097, -0.46211715726000974)


def random_params(rng, scale=8.0):
    return CouplingParams(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def energies(p):
    """Bell-level energies as documented in `core`, indexed by BellLabel."""
    return np.array([(p.u + 3.0 * p.v) / 6.0, (p.u - 3.0 * p.v) / 6.0, -p.u / 3.0, 0.0])


def weights(p):
    return core.weights(p.u, p.v)[0]


def correlations(p):
    """Diagonal spin-spin correlations (c1, c2, c3): signed sums of the
    core's weights."""
    pp, pm, sp, sm = weights(p)
    return np.array([pp - pm + sp - sm, -pp + pm + sp - sm, pp + pm - sp - sm])


class TestCouplingParams:
    def test_holds_floats(self):
        p = CouplingParams(3, 1)
        assert p.u == 3.0 and isinstance(p.u, float)

    @pytest.mark.parametrize("u", [math.nan, None])
    def test_rejects_nan(self, u):
        with pytest.raises(ValueError, match="u must be finite"):
            CouplingParams(u, 0.0)

    def test_rejects_infinite(self):
        with pytest.raises(ValueError):
            CouplingParams(0.0, math.inf)

    def test_rejects_beyond_stability_limit(self):
        with pytest.raises(ValueError, match="stability limit"):
            CouplingParams(COUPLING_LIMIT + 1.0, 0.0)
        CouplingParams(COUPLING_LIMIT, -COUPLING_LIMIT)


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
            hermitian_eig(hamiltonian_matrix(p)).eigenvalues, [-1.0, 0.0, 0.0, 1.0],
            atol=1e-15,
        )

    def test_zero_couplings_uniform(self):
        np.testing.assert_array_equal(weights(CouplingParams(0.0, 0.0)), [0.25] * 4)

    def test_frozen_weights(self):
        w = weights(CouplingParams(3.0, 1.0))
        for label, expected in W31.items():
            assert w[label] == pytest.approx(expected, abs=1e-14)

    def test_log_partition(self):
        # the shifted exponentials give the unshifted Boltzmann ratios, which
        # are safe to sum directly at small couplings
        p = CouplingParams(3.0, 1.0)
        boltzmann = [math.exp(-e) for e in energies(p)]
        np.testing.assert_allclose(weights(p), np.array(boltzmann) / sum(boltzmann),
                                   rtol=0.0, atol=1e-15)

    def test_ground_state_saturates(self):
        w = weights(CouplingParams(30.0, 0.0))
        assert abs(w[BellLabel.PSI_PLUS] - 1.0) < 1e-4

    def test_weights_inverse_order_of_energy(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = random_params(rng)
            w = weights(p)
            assert abs(float(w.sum()) - 1.0) < 1e-12
            order = np.argsort(energies(p))
            assert np.all(np.diff(w[order]) <= 1e-15)

    def test_extreme_couplings_stay_finite(self):
        w = weights(CouplingParams(2000.0, -2000.0))
        assert np.all(np.isfinite(w))
        assert float(w.sum()) == pytest.approx(1.0)

    def test_dominant_tie_break(self):
        # evaluate_one returns the dominant label's index and its weight
        _, _, _, _, _, label, weight, _ = core.evaluate_one(0.0, 0.0)
        assert label == BellLabel.PHI_PLUS and weight == 0.25
        assert core.evaluate_one(30.0, 0.0)[5] == BellLabel.PSI_PLUS


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

    def test_degenerate_phi_doublet(self):
        # at (-6, 0) the two Phi levels share the ground energy -1
        w = weights(CouplingParams(-6.0, 0.0))
        assert w[BellLabel.PHI_PLUS] == w[BellLabel.PHI_MINUS]
        assert w[BellLabel.PHI_PLUS] == pytest.approx(0.4136219764199625, abs=1e-14)
        # no Bell component reaches 1/2
        assert float(w.max()) < 0.5


class TestCorrelations:
    def test_uncorrelated_at_zero(self):
        np.testing.assert_array_equal(correlations(CouplingParams(0.0, 0.0)), [0.0] * 3)

    def test_frozen_values(self):
        c = correlations(CouplingParams(3.0, 1.0))
        np.testing.assert_allclose(c, C31, rtol=0.0, atol=1e-14)

    def test_explicit_partition_ratio(self):
        # unshifted Boltzmann ratios are safe at moderate couplings
        for u, v in [(3.0, 1.0), (-2.0, 0.5), (1.5, -4.0)]:
            z = sum(math.exp(-e) for e in energies(CouplingParams(u, v)))
            c3 = correlations(CouplingParams(u, v))[2]
            expected_c3 = (
                math.exp(-(u + 3 * v) / 6) + math.exp(-(u - 3 * v) / 6)
                - math.exp(u / 3) - 1.0
            ) / z
            assert c3 == pytest.approx(expected_c3, abs=1e-13)

    def test_v_parity_swaps_c1_c2(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            p = random_params(rng)
            c1, c2, c3 = correlations(p)
            m1, m2, m3 = correlations(CouplingParams(p.u, -p.v))
            assert c1 == pytest.approx(m2, abs=1e-15)
            assert c2 == pytest.approx(m1, abs=1e-15)
            assert c3 == pytest.approx(m3, abs=1e-15)

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
