"""Tests for the array core and its scalar twin beyond what scans over
grids cover."""
from types import SimpleNamespace

import numpy as np
import pytest

from dipolepair import core
from dipolepair.core import CouplingParams
from dipolepair.scan import BoundaryQuantity, GridSpec, boundary_field, evaluate_point


def test_matches_evaluate_point_at_scattered_points():
    # a block of 3200 points, and a column of u or v against a scalar: the
    # core has one entry per point in every column, and it and its scalar
    # twin behind evaluate_point agree to the bit
    rng = np.random.default_rng(5)
    u = np.concatenate([rng.uniform(-12, 12, 3000), rng.uniform(-2000, 2000, 200)])
    v = np.concatenate([rng.uniform(-12, 12, 3000), rng.uniform(-2000, 2000, 200)])
    for args in ((u, v), ([1.0, 2.0, 3.0], 1.0), (1.0, [1.0, 2.0, 3.0])):
        b = core.evaluate(*args)
        us, vs = (x.tolist() for x in np.broadcast_arrays(*args))
        assert {len(column) for column in vars(b).values()} == {len(us)}
        for k, (uk, vk) in enumerate(zip(us, vs)):
            rec = evaluate_point(CouplingParams(uk, vk))
            assert (b.u[k], b.v[k]) == (rec.u, rec.v)
            assert (b.chsh[k], b.negativity[k], b.fidelity[k], b.dominant_weight[k]) == (
                rec.chsh, rec.negativity, rec.fidelity, rec.dominant_weight)
            assert core.LABELS[b.dominant[k]] is rec.dominant_label
            assert core.REGIONS[b.region[k]] is rec.region
            one = core.evaluate_one(uk, vk)
            assert np.array_equal(np.array(one, dtype=float).view(np.int64),
                                  np.array([getattr(b, f)[k] for f in vars(b)],
                                           dtype=float).view(np.int64))


@pytest.mark.parametrize("u, v", [
    ([0.0, 2000.5], [0.0, 0.0]),
    ([0.0, 0.0], [1.0, -2001.0]),
    ([np.nan], [0.0]),
    ([0.0], [np.inf]),
])
def test_rejects_couplings_outside_the_envelope(u, v):
    with pytest.raises(ValueError):
        core.evaluate(u, v)


@pytest.mark.parametrize("call", [
    lambda: CouplingParams(10 ** 400, 0.0),
    lambda: GridSpec(0.0, 10 ** 400, 0.0, 1.0, 2, 2),
    lambda: core.evaluate([10 ** 400], [0.0]),
    lambda: core.evaluate(0.0, [0.0, -10 ** 400]),
    lambda: core.evaluate_one(10 ** 400, 0.0),
    lambda: boundary_field(BoundaryQuantity.CHSH_MINUS_2)(10 ** 400, 0.0),
], ids=["params", "grid", "evaluate", "evaluate-v", "evaluate_one", "boundary_field"])
def test_an_integer_beyond_the_float_range_is_a_value_error(call):
    # float(10 ** 400) raises OverflowError, which is not a ValueError
    with pytest.raises(ValueError, match=r"^(u|v|u_max) must be finite, got an integer too large"):
        call()


def test_evaluate_point_does_not_call_the_array_core(monkeypatch):
    p = CouplingParams(3.0, -1.0)
    want = evaluate_point(p)

    def fail(u, v):
        raise AssertionError("evaluate_point called core.evaluate")

    monkeypatch.setattr(core, "evaluate", fail)
    assert evaluate_point(p) == want


@pytest.mark.parametrize("u, v", [
    (np.nan, 0.0),
    (0.0, 2000.5),
    (0.0, -np.inf),
    (2500.0, np.nan),
    (np.inf, 3000.0),
])
def test_evaluate_point_rejects_what_the_array_core_rejects(u, v):
    # a duck-typed params object skips CouplingParams' checks; the scalar
    # twin then raises the array core's error, text and order included
    with pytest.raises(ValueError) as want:
        core.evaluate(u, v)
    with pytest.raises(ValueError) as got:
        evaluate_point(SimpleNamespace(u=u, v=v))
    assert str(got.value) == str(want.value)


def test_squares_as_python_float_power_does():
    # evaluate_one squares with Python's x ** 2 (libm pow); on this
    # draw x * x differs from pow in the last bit somewhere, float_power nowhere
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.uniform(-1.0, 1.0, 900_000), rng.uniform(-1e-3, 1e-3, 100_000)])
    want = np.array([t ** 2 for t in x.tolist()])
    np.testing.assert_array_equal(np.float_power(x, 2.0), want)
    assert np.any(x * x != want)
