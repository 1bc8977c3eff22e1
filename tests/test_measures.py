"""Tests for the CHSH and negativity measures: the closed forms of the
scalar route in `reference` against its general routes by definition.

Frozen numbers come from an independent matrix-exponential plus
eigendecomposition oracle run before the measures were written.
"""
import math

import numpy as np
import pytest

from dipolepair.core import CHSH_QUANTUM_BOUND, BellLabel, CouplingParams
from dipolepair.reference import (
    ChshResult,
    CorrelationTriple,
    SpectralData,
    bell_state,
    chsh_from_correlations,
    chsh_max,
    chsh_max_general,
    correlations,
    negativity,
    negativity_bell_diagonal,
    projector,
    spectrum,
    thermal_state,
)

B31 = 1.3070647024048123
N31 = 0.034446645388522934
PT31 = [-0.03444664538852305, 0.3033880667585181, 0.3033880667585181,
        0.42767051187148664]


def random_params(rng, scale=8.0):
    return CouplingParams(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


class TestChshGeneral:
    def test_zero_matrix(self):
        res = chsh_max_general(np.zeros((3, 3)))
        assert res.value == 0.0 and not res.violating

    def test_bell_state_saturates_quantum_bound(self):
        res = chsh_max_general(np.diag([1.0, 1.0, -1.0]))
        assert res.value == pytest.approx(CHSH_QUANTUM_BOUND, abs=1e-14)
        assert res.violating

    def test_frozen_thermal_value(self):
        res = chsh_max_general(correlations(CouplingParams(3.0, 1.0)).matrix())
        assert res.value == pytest.approx(B31, abs=1e-13)
        assert not res.violating

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
        a = chsh_max_general(c).value
        b = chsh_max_general(rot @ c @ rot.T).value
        assert a == pytest.approx(b, abs=1e-13)


class TestChshClosedForm:
    def test_uncorrelated(self):
        res = chsh_max(CouplingParams(0.0, 0.0))
        assert res.value == 0.0 and not res.violating

    def test_frozen_thermal_value(self):
        assert chsh_max(CouplingParams(3.0, 1.0)).value == pytest.approx(
            B31, abs=1e-14
        )

    def test_deep_ground_state_approaches_bound(self):
        res = chsh_max(CouplingParams(30.0, 0.0))
        assert abs(res.value - CHSH_QUANTUM_BOUND) < 1e-3
        assert res.violating

    def test_agrees_with_general_route(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            p = random_params(rng)
            closed = chsh_max(p).value
            general = chsh_max_general(correlations(p).matrix()).value
            assert abs(closed - general) < 1e-12

    def test_drops_smallest_component(self):
        c = CorrelationTriple(0.6, 0.3, -0.1)
        expected = 2.0 * math.sqrt(0.6 ** 2 + 0.3 ** 2)
        assert chsh_from_correlations(c).value == pytest.approx(expected, abs=1e-15)

    def test_result_range_guard(self):
        with pytest.raises(ValueError):
            ChshResult(value=3.0, violating=True)


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
        assert negativity_bell_diagonal(spectrum(CouplingParams(0.0, 0.0))) == 0.0

    def test_pure_bell_weight(self):
        sd = SpectralData.from_weights([0.0, 0.0, 1.0, 0.0])
        assert negativity_bell_diagonal(sd) == pytest.approx(0.5)

    def test_frozen_thermal_value(self):
        sd = spectrum(CouplingParams(3.0, 1.0))
        assert negativity_bell_diagonal(sd) == pytest.approx(N31, abs=1e-14)
        # the closed form is exactly max weight - 1/2 here
        assert negativity_bell_diagonal(sd) == pytest.approx(
            sd.weight(BellLabel.PSI_PLUS) - 0.5, abs=1e-15
        )

    def test_agrees_with_definition(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            p = random_params(rng)
            closed = negativity_bell_diagonal(spectrum(p))
            full = negativity(thermal_state(p)).value
            assert abs(closed - full) < 1e-12

    def test_partial_transpose_spectrum_is_half_minus_weights(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            p = random_params(rng)
            sd = spectrum(p)
            evals = negativity(thermal_state(p)).pt_eigenvalues
            expected = np.sort(0.5 - sd.weights)
            np.testing.assert_allclose(evals, expected, atol=1e-13)


class TestPhysicalRelations:
    def test_nonlocal_implies_entangled(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            p = random_params(rng, scale=12.0)
            if chsh_max(p).violating:
                assert negativity_bell_diagonal(spectrum(p)) > 1e-12

    def test_values_in_range(self):
        rng = np.random.default_rng(56)
        for _ in range(200):
            p = random_params(rng, scale=12.0)
            b = chsh_max(p).value
            n = negativity_bell_diagonal(spectrum(p))
            assert 0.0 <= b <= CHSH_QUANTUM_BOUND + 1e-12
            assert 0.0 <= n <= 0.5
