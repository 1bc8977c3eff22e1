"""Tests for the array core beyond what scans over grids cover."""
import numpy as np
import pytest

from dipolepair import core
from dipolepair.dipolar import CouplingParams
from dipolepair.reference import scalar_record
from dipolepair.scan import evaluate_point


def test_matches_evaluate_point_at_scattered_points():
    # a block of 3200 points, evaluate_point (the core at N = 1) and the
    # scalar route through the validating dataclasses all agree
    rng = np.random.default_rng(5)
    u = np.concatenate([rng.uniform(-12, 12, 3000), rng.uniform(-2000, 2000, 200)])
    v = np.concatenate([rng.uniform(-12, 12, 3000), rng.uniform(-2000, 2000, 200)])
    b = core.evaluate(u, v)
    for k in range(len(u)):
        p = CouplingParams(u[k], v[k])
        rec = scalar_record(p)
        assert (b.chsh[k], b.negativity[k], b.fidelity[k], b.dominant_weight[k]) == (
            rec.chsh, rec.negativity, rec.fidelity, rec.dominant_weight)
        assert core.LABELS[b.dominant[k]] is rec.dominant_label
        assert core.REGIONS[b.region[k]] is rec.region
        assert evaluate_point(p) == rec


@pytest.mark.parametrize("u, v", [
    ([0.0, 2000.5], [0.0, 0.0]),
    ([0.0, 0.0], [1.0, -2001.0]),
    ([np.nan], [0.0]),
    ([0.0], [np.inf]),
])
def test_rejects_couplings_outside_the_envelope(u, v):
    with pytest.raises(ValueError):
        core.evaluate(u, v)


def test_squares_as_python_float_power_does():
    # the scalar route squares with Python's x ** 2 (libm pow); on this
    # draw x * x differs from pow in the last bit somewhere, float_power nowhere
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.uniform(-1.0, 1.0, 900_000), rng.uniform(-1e-3, 1e-3, 100_000)])
    want = np.array([t ** 2 for t in x.tolist()])
    np.testing.assert_array_equal(np.float_power(x, 2.0), want)
    assert np.any(x * x != want)
