"""Tests for the teleportation channel and its fidelities: the closed-form
fidelity of `core` against the channel arithmetic and sphere quadrature of
`reference`.

Frozen numbers were produced by a direct matrix-arithmetic oracle
(explicit Kraus conjugations and a 400 x 400 dense sphere quadrature)
before the fidelities were written.
"""
import math

import numpy as np
import pytest

from dipolepair import core
from dipolepair.core import BellLabel
from dipolepair.reference import (
    BlochAngles,
    average_fidelity_quadrature,
    bell_state,
    channel_output,
    channel_state,
    fidelity_pointwise,
    minimum_fidelity,
    pauli,
    pauli_conjugation,
    projector,
)

F31 = 0.689631096925682
FPOINT31 = 0.6067761335170361
BLOCHX31 = 0.21355226703407246
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


def random_weights(rng):
    return rng.dirichlet(np.ones(4))


def weights(u, v):
    return core.weights(u, v)[0]


def fidelity_and_seed(u, v):
    """The core's best average fidelity and the seed (dominant label) that
    reaches it."""
    _, _, _, _, fidelity, label, _, _ = core.evaluate_one(u, v)
    return fidelity, BellLabel(label)


def bloch_vector(rho):
    return np.array([float(np.trace(rho @ pauli(k)).real) for k in (1, 2, 3)])


class TestBlochAngles:
    def test_reduced_on_construction(self):
        ang = BlochAngles(-1.0, 0.5)
        assert ang.theta == pytest.approx(1.0)
        assert ang.phi == pytest.approx(0.5 + math.pi)

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


class TestPauliConjugation:
    def test_identity_leaves_state(self):
        ang = BlochAngles(0.8, 1.3)
        np.testing.assert_allclose(pauli_conjugation(0, ang), ang.density())

    def test_x_fixes_x_eigenstate(self):
        ang = BlochAngles(math.pi / 2, 0.0)  # +x direction
        np.testing.assert_allclose(
            pauli_conjugation(1, ang), ang.density(), atol=1e-15
        )

    def test_flips_other_components(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            ang = BlochAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            n = bloch_vector(ang.density())
            for mu in range(4):
                flipped = bloch_vector(pauli_conjugation(mu, ang))
                expected = n.copy()
                if mu != 0:
                    keep = mu - 1
                    expected = -expected
                    expected[keep] = n[keep]
                np.testing.assert_allclose(flipped, expected, atol=1e-13)


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
            out = channel_output(PURE_PSI_PLUS, BellLabel.PSI_PLUS, ang)
            np.testing.assert_allclose(out, ang.density(), atol=1e-14)

    def test_uniform_resource_depolarizes(self):
        out = channel_output(weights(0.0, 0.0), BellLabel.PSI_PLUS, BlochAngles(1.0, 2.0))
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-15)

    def test_frozen_equatorial_output(self):
        ang = BlochAngles(math.pi / 2, 0.0)
        out = channel_output(weights(3.0, 1.0), BellLabel.PSI_PLUS, ang)
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
                out = channel_output(w, k0, ang)
                np.testing.assert_allclose(
                    bloch_vector(out), lam * ang.unit_vector(), atol=1e-12
                )

    def test_invalid_weights_rejected(self):
        # a negative weight, one too few, and a sum other than 1
        for w in ([0.7, 0.5, -0.2, 0.0], [0.5, 0.5, 0.0], [0.3, 0.3, 0.3, 0.3]):
            with pytest.raises(ValueError):
                channel_output(w, BellLabel.PSI_PLUS, BlochAngles(1.0, 2.0))


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
    def test_pure_resource(self):
        # Psi+ carries all the weight at the edge of the envelope
        assert fidelity_and_seed(2000.0, 0.0) == (1.0, BellLabel.PSI_PLUS)

    def test_uniform_resource(self):
        assert fidelity_and_seed(0.0, 0.0)[0] == pytest.approx(0.5)

    def test_frozen_thermal_value(self):
        assert fidelity_and_seed(3.0, 1.0)[0] == pytest.approx(F31, abs=1e-14)

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
        q = average_fidelity_quadrature(weights(3.0, 1.0), BellLabel.PSI_PLUS, 2)
        assert q == pytest.approx(F31, abs=1e-12)

    def test_uniform_resource(self):
        q = average_fidelity_quadrature(weights(0.0, 0.0), BellLabel.PHI_MINUS, 3)
        assert q == pytest.approx(0.5, abs=1e-13)

    def test_pure_resource(self):
        q = average_fidelity_quadrature([1.0, 0.0, 0.0, 0.0], BellLabel.PHI_PLUS, 2)
        assert q == pytest.approx(1.0, abs=1e-13)

    def test_order_insensitive_once_exact(self):
        w = weights(-2.0, 3.0)
        a = average_fidelity_quadrature(w, BellLabel.PHI_PLUS, 2)
        b = average_fidelity_quadrature(w, BellLabel.PHI_PLUS, 5)
        assert a == pytest.approx(b, abs=1e-13)

    def test_insufficient_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            average_fidelity_quadrature(weights(1.0, 1.0), BellLabel.PSI_PLUS, 1)


class TestBestFidelity:
    def test_frozen_thermal_report(self):
        best, seed = fidelity_and_seed(3.0, 1.0)
        assert seed is BellLabel.PSI_PLUS
        assert best == pytest.approx(F31, abs=1e-14)
        assert best > minimum_fidelity(2)

    def test_degenerate_doublet_stays_classical(self):
        best, seed = fidelity_and_seed(-6.0, 0.0)
        assert best == pytest.approx(BEST_MINUS6, abs=1e-14)
        assert best < minimum_fidelity(2)
        assert seed is BellLabel.PHI_PLUS  # tie falls to canonical order

    def test_uniform_resource_tie(self):
        best, seed = fidelity_and_seed(0.0, 0.0)
        assert best == pytest.approx(0.5)
        assert seed is BellLabel.PHI_PLUS
        assert best < minimum_fidelity(2)

    def test_best_is_max_over_all_seeds(self):
        # the core's fidelity is the best of the four seeds' sphere averages,
        # reached at its dominant label
        rng = np.random.default_rng(67)
        for _ in range(100):
            u, v = rng.uniform(-12.0, 12.0, 2).tolist()
            best, seed = fidelity_and_seed(u, v)
            quads = [average_fidelity_quadrature(weights(u, v), label, 2) for label in BellLabel]
            assert best == pytest.approx(max(quads), abs=1e-13)
            assert quads[seed] == max(quads)

    def test_affine_link_to_max_weight(self):
        # best - 2/3 = (2/3) (max_a p_a - 1/2) for the thermal resource
        rng = np.random.default_rng(68)
        for _ in range(100):
            u, v = rng.uniform(-12.0, 12.0, 2).tolist()
            lhs = fidelity_and_seed(u, v)[0] - 2.0 / 3.0
            rhs = (2.0 / 3.0) * (float(np.max(weights(u, v))) - 0.5)
            assert abs(lhs - rhs) <= 1e-14


class TestMinimumFidelity:
    def test_qubit_value(self):
        assert minimum_fidelity(2) == 2.0 / 3.0

    def test_qutrit_value(self):
        assert minimum_fidelity(3) == pytest.approx(0.5)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            minimum_fidelity(1)

    def test_rejects_fractional_dimension(self):
        with pytest.raises(ValueError):
            minimum_fidelity(2.5)
