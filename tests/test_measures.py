"""Tests for the CHSH and negativity measures: the closed forms of `core`
against the general routes by definition in `reference`.

Frozen numbers come from an independent matrix-exponential plus
eigendecomposition oracle run before the measures were written.
"""
import math

import numpy as np
import pytest

from dipolepair import core
from dipolepair.core import (
    CHSH_CLASSICAL_BOUND,
    CHSH_QUANTUM_BOUND,
    BellLabel,
    CouplingParams,
    Region,
)
from dipolepair.reference import (
    bell_state,
    chsh_max_general,
    fano_marginals,
    negativity,
    projector,
    thermal_state,
)

B31 = 1.3070647024048123
N31 = 0.034446645388522934
PT31 = [-0.03444664538852305, 0.3033880667585181, 0.3033880667585181,
        0.42767051187148664]


def random_params(rng, scale=8.0):
    return CouplingParams(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def chsh(p):
    return core.evaluate_one(p.u, p.v)[2]


def closed_negativity(p):
    return core.evaluate_one(p.u, p.v)[3]


def correlation_matrix(p):
    """3x3 correlation matrix of the dense thermal state."""
    return fano_marginals(thermal_state(p))[2]


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
    def test_uncorrelated(self):
        assert chsh(CouplingParams(0.0, 0.0)) == 0.0

    def test_frozen_thermal_value(self):
        assert chsh(CouplingParams(3.0, 1.0)) == pytest.approx(B31, abs=1e-14)

    def test_deep_ground_state_approaches_bound(self):
        _, _, value, _, _, _, _, region = core.evaluate_one(30.0, 0.0)
        assert abs(value - CHSH_QUANTUM_BOUND) < 1e-3
        assert core.REGIONS[region] is Region.NONLOCAL

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

    def test_separable_mixture_scores_zero(self):
        # equal mixture of |00> and |11> is classically correlated only
        rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        assert negativity(rho).value == pytest.approx(0.0, abs=1e-15)


class TestNegativityBellDiagonal:
    def test_uniform_weights(self):
        assert closed_negativity(CouplingParams(0.0, 0.0)) == 0.0

    def test_pure_bell_weight(self):
        # at the edge of the envelope the Psi+ weight rounds to exactly 1
        p = CouplingParams(2000.0, 0.0)
        assert core.weights(p.u, p.v)[0][BellLabel.PSI_PLUS] == 1.0
        assert closed_negativity(p) == 0.5

    def test_frozen_thermal_value(self):
        p = CouplingParams(3.0, 1.0)
        assert closed_negativity(p) == pytest.approx(N31, abs=1e-14)
        # the closed form is exactly max weight - 1/2 here
        assert closed_negativity(p) == pytest.approx(
            core.weights(p.u, p.v)[0][BellLabel.PSI_PLUS] - 0.5, abs=1e-15
        )

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


class TestPhysicalRelations:
    def test_nonlocal_implies_entangled(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            p = random_params(rng, scale=12.0)
            if chsh(p) > CHSH_CLASSICAL_BOUND:
                assert closed_negativity(p) > 1e-12

    def test_values_in_range(self):
        rng = np.random.default_rng(56)
        for _ in range(200):
            p = random_params(rng, scale=12.0)
            assert 0.0 <= chsh(p) <= CHSH_QUANTUM_BOUND + 1e-12
            assert 0.0 <= closed_negativity(p) <= 0.5
