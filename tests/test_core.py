"""Tests for the model of `core`: the couplings, the Boltzmann weights and
correlations, and the CHSH, negativity and fidelity closed forms at frozen
points and over random couplings; and for the array core and its scalar
twin beyond what scans over grids cover.

Expected numbers at (u, v) = (3, 1) were frozen before the model was
written, from independent oracles: the weights and correlations from scipy
expm of the 4x4 Hamiltonian, then projection onto the Bell basis; the CHSH
value and negativity from the same matrix exponential and an
eigendecomposition; the fidelity from explicit Kraus conjugations and a
400 x 400 dense sphere quadrature.
"""
import dataclasses
import functools
import math
import pickle
import re
import reprlib
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from dipolepair import core
from dipolepair.core import (
    CHSH_CLASSICAL_BOUND,
    CHSH_QUANTUM_BOUND,
    COUPLING_LIMIT,
    BellLabel,
    CouplingParams,
    Region,
    evaluate_point,
)
from dipolepair.scan import (
    BoundaryQuantity,
    GridSpec,
    bisect_root,
    boundary_field,
    trace_boundary,
)

# the three boundary fields by test id: each reads and words its couplings
# as the core does, whatever column it computes
FIELDS = {"boundary_field": BoundaryQuantity.CHSH_MINUS_2,
          "boundary_field-negativity": BoundaryQuantity.NEGATIVITY,
          "boundary_field-fidelity": BoundaryQuantity.FIDELITY_MINUS_TWO_THIRDS}


def beyond_limit(name: str, x: float) -> str:
    """The whole message of `core.coupling` for a value beyond the limit, as a pattern."""
    return "^" + re.escape(f"|{name}| = {x!r} exceeds the stability limit 2000.0") + "$"


# frozen oracle values at (u, v) = (3, 1)
W31 = {
    BellLabel.PHI_PLUS: 0.07232948812851325,
    BellLabel.PHI_MINUS: 0.1966119332414818,
    BellLabel.PSI_PLUS: 0.5344466453885229,
    BellLabel.PSI_MINUS: 0.1966119332414818,
}
C31 = (0.21355226703407254, 0.4621171572600097, -0.46211715726000974)
B31 = 1.3070647024048123
N31 = 0.034446645388522934
F31 = 0.689631096925682


def twin(u, v):
    """The record of the core's scalar twin `evaluate_point` at (u, v)."""
    return evaluate_point(CouplingParams(u, v))


def random_params(rng, scale=8.0):
    return CouplingParams(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def energies(p):
    """Bell-level energies as documented in `core`, indexed by BellLabel."""
    return np.array([(p.u + 3.0 * p.v) / 6.0, (p.u - 3.0 * p.v) / 6.0, -p.u / 3.0, 0.0])


def weights(p):
    return core.weights(p.u, p.v)[0]


def weights_at(u, v):
    return core.weights(u, v)[0]


def correlations(p):
    """Diagonal spin-spin correlations (c1, c2, c3): signed sums of the
    core's weights."""
    pp, pm, sp, sm = weights(p)
    return np.array([pp - pm + sp - sm, -pp + pm + sp - sm, pp + pm - sp - sm])


def chsh(p):
    return evaluate_point(p).chsh


def closed_negativity(p):
    return evaluate_point(p).negativity


def fidelity_and_seed(u, v):
    """The core's best average fidelity and the seed (dominant label) that
    reaches it."""
    rec = twin(u, v)
    return rec.fidelity, rec.dominant_label


def test_matches_evaluate_point_at_scattered_points():
    # a block of 4454 points, and a column of u or v against a scalar: the
    # core has one entry per point in every column, and it and its scalar
    # twin evaluate_point agree to the bit.  Beside a seeded draw the
    # block holds the edges of the twin's shortcuts (no np.exp at the
    # lowest level, 1/z as the largest weight): the integer lattice, with
    # exact ties between levels and u = 0, where e2 = -u/3 is -0.0; the same
    # lattice in units of the least subnormal, where the energies' divisions
    # round to 0; and the corners of the envelope.  Both routes take the
    # largest weight as 1/z, so each is also held to the public weights: the
    # first maximum by np.argmax, and the largest weight by max, to the bit
    rng = np.random.default_rng(5)
    g = np.arange(-12.0, 13.0)
    u = np.concatenate([rng.uniform(-12, 12, 3000), rng.uniform(-2000, 2000, 200),
                        np.repeat(g, g.size), np.repeat(g * 5e-324, g.size),
                        [2000.0, 2000.0, -2000.0, -2000.0]])
    v = np.concatenate([rng.uniform(-12, 12, 3000), rng.uniform(-2000, 2000, 200),
                        np.tile(g, g.size), np.tile(g * 5e-324, g.size),
                        [2000.0, -2000.0, 2000.0, -2000.0]])
    for args in ((u, v), ([1.0, 2.0, 3.0], 1.0), (1.0, [1.0, 2.0, 3.0])):
        b = core.evaluate(*args)
        w = core.weights(*args)
        assert np.array_equal(b.dominant, np.argmax(w, axis=1))
        assert np.array_equal(b.dominant_weight.view(np.int64), w.max(axis=1).view(np.int64))
        us, vs = (x.tolist() for x in np.broadcast_arrays(*args))
        assert {len(column) for column in b._asdict().values()} == {len(us)}
        for k, (uk, vk) in enumerate(zip(us, vs)):
            rec = evaluate_point(CouplingParams(uk, vk))
            assert (b.u[k], b.v[k]) == (rec.u, rec.v)
            assert (b.chsh[k], b.negativity[k], b.fidelity[k], b.dominant_weight[k]) == (
                rec.chsh, rec.negativity, rec.fidelity, rec.dominant_weight)
            assert core.LABELS[b.dominant[k]] is rec.dominant_label
            assert core.REGIONS[b.region[k]] is rec.region
            # all eight fields to the bit, which == does not see (0.0 == -0.0)
            fields = [rec.u, rec.v, rec.chsh, rec.negativity, rec.fidelity,
                      rec.dominant_label, rec.dominant_weight, core.REGIONS.index(rec.region)]
            assert np.array_equal(np.array(fields, dtype=float).view(np.int64),
                                  np.array([column[k] for column in b._asdict().values()],
                                           dtype=float).view(np.int64))


@pytest.mark.parametrize("u, v, calls, route", [
    pytest.param(u, v, calls, route, id=f"{prefix}{u}-{v}-{calls}")
    for prefix, route in (("", twin),
                          ("duck-", lambda u, v: evaluate_point(SimpleNamespace(u=u, v=v))))
    for u, v, calls in [(3.0, 1.0, 3), (0.0, 0.0, 0)]
])
def test_the_twin_calls_exp_only_above_the_lowest_level(u, v, calls, route, monkeypatch):
    # at (3, 1) Psi+ is the one lowest level; at (0, 0) all four are.  The
    # scalar twin calls np.exp through the name it binds at import
    want = route(u, v)
    exp_calls = []

    def counting_exp(x):
        exp_calls.append(x)
        return np.exp(x)

    monkeypatch.setattr(core, "_exp", counting_exp)
    assert route(u, v) == want
    assert len(exp_calls) == calls


@pytest.mark.parametrize("u, v, message", [
    ([0.0, 2000.5], [0.0, 0.0], beyond_limit("u", 2000.5)),
    ([0.0, 0.0], [1.0, -2001.0], beyond_limit("v", 2001.0)),
    ([np.nan], [0.0], "^u must be finite, got nan$"),
    ([0.0], [np.inf], "^v must be finite, got inf$"),
], ids=["u0-v0", "u1-v1", "u2-v2", "u3-v3"])
def test_rejects_couplings_outside_the_envelope(u, v, message):
    # the text of `core.coupling` for the first bad value
    with pytest.raises(ValueError, match=message):
        core.evaluate(u, v)


@pytest.mark.parametrize("call, message", [
    (lambda: CouplingParams(np.array([3.0]), 1), "u must be a single number, got array([3.])"),
    (lambda: GridSpec(np.array([0.0]), 1, 0, 1, 2, 2),
     "u_min must be a single number, got array([0.])"),
    (lambda: evaluate_point(SimpleNamespace(u=np.array([1.0, 2.0]), v=0)),
     "u must be a single number, got array([1., 2.])"),
    (lambda: evaluate_point(SimpleNamespace(u=0.0, v=[1.0, 2.0])),
     "v must be a single number, got [1.0, 2.0]"),
    (lambda: evaluate_point(SimpleNamespace(u=np.array([1.0]), v=0.0)),
     "u must be a single number, got array([1.])"),
    (lambda: CouplingParams(1.0, np.array([])),
     "v must be a single number, got array([], dtype=float64)"),
], ids=["params", "grid", "evaluate_point", "evaluate_point-list", "evaluate_point-1-element",
        "params-empty"])
def test_an_array_of_finite_numbers_is_not_a_coupling(call, message):
    # every value is finite: the text names the shape, not finiteness; a
    # single point is read as CouplingParams reads it, one element or more
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: core.evaluate([1.0, 2.0], [1.0, 2.0, 3.0]),
    lambda: core.weights([1.0, 2.0], [1.0, 2.0, 3.0]),
] + [lambda q=q: boundary_field(q)([1.0, 2.0], [1.0, 2.0, 3.0]) for q in FIELDS.values()],
    ids=["evaluate", "weights", *FIELDS])
def test_couplings_that_do_not_broadcast_name_both_shapes(call):
    with pytest.raises(ValueError, match=r"^u of shape \(2,\) and v of shape \(3,\) do not "
                                         "broadcast together$"):
        call()


@pytest.mark.parametrize("u", [1, np.float64(1.0), np.int64(1), "1"])
def test_the_twin_reads_what_evaluate_reads(u):
    rec = twin(u, 0.0)
    assert rec == twin(1.0, 0.0) and type(rec.u) is float


@pytest.mark.parametrize("call", [
    lambda: CouplingParams(10 ** 400, 0.0),
    lambda: GridSpec(0.0, 10 ** 400, 0.0, 1.0, 2, 2),
    lambda: core.evaluate([10 ** 400], [0.0]),
    lambda: core.evaluate(0.0, [0.0, -10 ** 400]),
    lambda: evaluate_point(SimpleNamespace(u=10 ** 400, v=0.0)),
] + [lambda q=q: boundary_field(q)(10 ** 400, 0.0) for q in FIELDS.values()],
    ids=["params", "grid", "evaluate", "evaluate-v", "evaluate_point", *FIELDS])
def test_an_integer_beyond_the_float_range_is_a_value_error(call):
    # float(10 ** 400) raises OverflowError, which is not a ValueError
    with pytest.raises(ValueError, match=r"^(u|v|u_max) must be finite, got an integer too large"):
        call()


GRID3 = GridSpec(0.0, 1.0, 0.0, 1.0, 3, 3)
# numpy complex numbers, which np.asarray(x, dtype=float) reads as their real
# part, and values that it rejects with a ValueError in numpy's words
NOT_REAL = {"complex128": np.complex128(1 + 2j), "complex64": np.complex64(1j),
            "0d": np.array(1 + 2j), "1d": np.array([1j]),
            "string": "x", "bytes": b"x", "ragged": [[1.0], [1.0, 2.0]]}
# entry points given a number first, with the message that rejects it
FIRST_NUMBER = {
    "params": (lambda x: CouplingParams(x, 1.0), "u must be finite, got {}"),
    "grid": (lambda x: GridSpec(x, 1.0, 0.0, 1.0, 3, 3), "u_min must be finite, got {}"),
    "evaluate": (lambda x: core.evaluate(x, 1.0), "u must be finite, got {}"),
    "evaluate_point": (lambda x: evaluate_point(SimpleNamespace(u=x, v=1.0)),
                       "u must be finite, got {}"),
    **{name: (lambda x, q=q: boundary_field(q)(x, 0.0), "u must be finite, got {}")
       for name, q in FIELDS.items()},
    "bisect_root": (lambda x: bisect_root(lambda t: t - 0.25, x, 1.0, -0.25, 0.75),
                    "bisection bracket ends must be finite"),
}


@pytest.mark.parametrize("call, message", [
    (lambda: core.evaluate(1 + 2j, 1.0), r"u must be finite, got \(1\+2j\)"),
    (lambda: core.evaluate(object(), 1.0), "u must be finite, got <object"),
    (lambda: core.evaluate(0.0, [1.0, 1j]), r"v must be finite, got \[1\.0, 1j\]"),
    (lambda: evaluate_point(SimpleNamespace(u=1 + 2j, v=1.0)), r"u must be finite, got \(1\+2j\)"),
] + [(lambda q=q: boundary_field(q)(1j, 0.0), "u must be finite, got 1j")
      for q in FIELDS.values()] + [
    (lambda: trace_boundary("chsh", GRID3, tol=None), "tolerance must be a real number, got None"),
    (lambda: trace_boundary("chsh", GRID3, tol="x"), "tolerance must be a real number, got 'x'"),
] + [(functools.partial(call, x), re.escape(text.format(reprlib.repr(x))) + "$")
      for call, text in FIRST_NUMBER.values() for x in NOT_REAL.values()],
    ids=["evaluate-complex", "evaluate-object", "evaluate-v", "evaluate_point", *FIELDS,
         "tol-none", "tol-string"]
    + [f"{entry}-{kind}" for entry in FIRST_NUMBER for kind in NOT_REAL])
def test_a_non_number_is_a_value_error(call, message):
    # np.asarray(x, dtype=float) and `tol > 0.0` raise TypeError on some of
    # these and ValueError in numpy's words on others, and numpy warns and
    # keeps the real part of a numpy complex number
    with pytest.raises(ValueError, match="^" + message):
        call()


def test_evaluate_point_does_not_call_the_array_core(monkeypatch):
    p = CouplingParams(3.0, -1.0)
    want = evaluate_point(p)

    def fail(u, v):
        raise AssertionError("evaluate_point called core.evaluate")

    monkeypatch.setattr(core, "evaluate", fail)
    assert evaluate_point(p) == want


class UncheckedParams(CouplingParams):
    """A CouplingParams whose couplings skip the checks."""

    def __init__(self, u, v):
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


@pytest.mark.parametrize("u, v, params", [
    pytest.param(u, v, params, id=f"{prefix}{u}-{v}")
    for prefix, params in (("", SimpleNamespace), ("subclass-", UncheckedParams))
    for u, v in [(np.nan, 0.0), (0.0, 2000.5), (0.0, -np.inf), (2500.0, np.nan), (np.inf, 3000.0)]
])
def test_evaluate_point_rejects_what_the_array_core_rejects(u, v, params):
    # a duck-typed params object or a subclass skips CouplingParams' checks,
    # so evaluate_point reads it as CouplingParams does, which raises the
    # array core's error, text and order included
    with pytest.raises(ValueError) as want:
        core.evaluate(u, v)
    with pytest.raises(ValueError) as got:
        evaluate_point(params(u=u, v=v))
    assert str(got.value) == str(want.value)


def test_evaluate_point_checks_each_coupling_of_a_params_once(monkeypatch):
    # CouplingParams checks u and v as it is built; evaluate_point takes its
    # floats as they are, with no second reading
    want = evaluate_point(CouplingParams(3.0, 1.0))
    calls = []

    def counting(name, x):
        calls.append(name)
        return float(x)

    monkeypatch.setattr(core, "coupling", counting)
    assert evaluate_point(CouplingParams(3.0, 1.0)) == want
    assert calls == ["u", "v"]


def test_squares_as_python_float_power_does():
    # evaluate_point squares with Python's x ** 2 (libm pow); on this
    # draw x * x differs from pow in the last bit somewhere, float_power nowhere
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.uniform(-1.0, 1.0, 900_000), rng.uniform(-1e-3, 1e-3, 100_000)])
    want = np.array([t ** 2 for t in x.tolist()])
    np.testing.assert_array_equal(np.float_power(x, 2.0), want)
    assert np.any(x * x != want)


def test_exp_of_one_float_is_exp_of_an_array():
    # evaluate_point calls np.exp on each of its four Python floats, weights on
    # arrays; the exponents lie in [-2000, 0] over the envelope.  On this
    # draw numpy's one-value loop gives the array loop's bits, math.exp not
    rng = np.random.default_rng(17)
    x = np.concatenate([rng.uniform(-2000.0, 0.0, 900_000), rng.uniform(-2.0, 0.0, 100_000)])
    got = np.array([float(np.exp(t)) for t in x.tolist()])
    np.testing.assert_array_equal(got.view(np.int64), np.exp(x).view(np.int64))
    assert np.any(np.array([math.exp(t) for t in x.tolist()]) != got)
    # so no level's weight exceeds the lowest level's, whose exponent, -0.0
    # or 0.0, evaluate_point does not pass to np.exp: its value is 1.0
    assert np.all(got <= 1.0)
    assert float(np.exp(-0.0)) == float(np.exp(0.0)) == 1.0


class TestBellStates:
    def test_canonical_order(self):
        assert [label.name for label in sorted(BellLabel)] == [
            "PHI_PLUS", "PHI_MINUS", "PSI_PLUS", "PSI_MINUS",
        ]


class TestCouplingParams:
    def test_holds_floats(self):
        for u in (3, np.float64(3.0), np.int64(3), "3"):
            p = CouplingParams(u, 1)
            assert p.u == 3.0 and type(p.u) is float

    @pytest.mark.parametrize("u", [math.nan, None])
    def test_rejects_nan(self, u):
        with pytest.raises(ValueError, match="u must be finite"):
            CouplingParams(u, 0.0)

    def test_rejects_infinite(self):
        with pytest.raises(ValueError):
            CouplingParams(0.0, math.inf)

    def test_rejects_beyond_stability_limit(self):
        with pytest.raises(ValueError, match=beyond_limit("u", 2001.0)):
            CouplingParams(COUPLING_LIMIT + 1.0, 0.0)
        with pytest.raises(ValueError, match=beyond_limit("v", 2000.5)):
            CouplingParams(0.0, -2000.5)
        CouplingParams(COUPLING_LIMIT, -COUPLING_LIMIT)

    def test_behaves_as_a_frozen_dataclass_checked_once(self, monkeypatch):
        p = CouplingParams(v=1, u=3.0)
        assert (p.u, p.v) == (3.0, 1.0) and isinstance(p.v, float)
        assert p == CouplingParams(3.0, 1.0) and hash(p) == hash(CouplingParams(3, 1.0))
        assert repr(p) == "CouplingParams(u=3.0, v=1.0)"
        # replace builds a new instance, so the new value is checked too
        with pytest.raises(ValueError, match=beyond_limit("u", 2001.0)):
            dataclasses.replace(p, u=2001.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.u = 0.0
        assert pickle.loads(pickle.dumps(p)) == p
        calls = []

        def counting(name, x):
            calls.append(name)
            return float(x)

        monkeypatch.setattr(core, "coupling", counting)
        CouplingParams(3.0, 1.0)
        assert calls == ["u", "v"]

    def test_holds_its_couplings_in_slots(self):
        # the two floats live in the class's slots, so an instance has no
        # __dict__ (and takes no weak reference), and a retained one costs no
        # more memory than one of a plain frozen two-field dataclass
        @dataclasses.dataclass(frozen=True)
        class Plain:
            u: float
            v: float

        p = CouplingParams(3.0, 1.0)
        assert not hasattr(p, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(p)
        # a subclass may still set the fields by object.__setattr__
        q = UncheckedParams(math.inf, "x")
        assert (q.u, q.v) == (math.inf, "x")

        couplings = [float(k) for k in range(2000)]

        def retained(cls):
            # the memory traced while the instances are held, floats not included
            tracemalloc.start()
            try:
                kept = [cls(x, x) for x in couplings]  # held until the reading below
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        assert retained(CouplingParams) <= retained(Plain)


class TestScanRecord:
    def test_fields_in_order(self):
        assert core.ScanRecord._fields == (
            "u", "v", "chsh", "negativity", "fidelity", "dominant_weight",
            "dominant_label", "region")

    def test_is_frozen(self):
        rec = twin(3.0, 1.0)
        # dataclasses.FrozenInstanceError is an AttributeError too
        with pytest.raises(AttributeError):
            rec.chsh = 0.0

    def test_repr(self):
        assert repr(twin(3.0, 1.0)) == (
            "ScanRecord(u=3.0, v=1.0, chsh=1.307064702404812, "
            "negativity=0.034446645388522934, fidelity=0.689631096925682, "
            "dominant_weight=0.5344466453885229, dominant_label=<BellLabel.PSI_PLUS: 2>, "
            "region=<Region.ENTANGLED_LOCAL: 'entangled_local'>)")

    def test_pickles_equal_and_hashes_equal(self):
        rec = twin(3.0, 1.0)
        assert pickle.loads(pickle.dumps(rec)) == rec
        again = twin(3.0, 1.0)
        assert again == rec and hash(again) == hash(rec)

    def test_plain_numbers_skip_the_reader(self, monkeypatch):
        def reader(*args):
            raise AssertionError("read a plain number")

        monkeypatch.setattr(core, "floats", reader)
        monkeypatch.setattr(core, "_points", reader)
        CouplingParams(3.0, 1.0)
        evaluate_point(CouplingParams(3.0, 1.0))
        evaluate_point(SimpleNamespace(u=3, v=1))
        evaluate_point(SimpleNamespace(u=np.float64(3.0), v=1.0))


class TestEvaluatePoint:
    def test_infinite_temperature(self):
        rec = evaluate_point(CouplingParams(0.0, 0.0))
        assert rec.chsh == 0.0
        assert rec.negativity == 0.0
        assert rec.fidelity == pytest.approx(0.5)
        assert rec.dominant_label is BellLabel.PHI_PLUS
        assert rec.dominant_weight == 0.25
        assert rec.region is Region.SEPARABLE

    def test_entangled_local_point(self):
        rec = evaluate_point(CouplingParams(3.0, 1.0))
        assert rec.region is Region.ENTANGLED_LOCAL
        assert rec.negativity == pytest.approx(0.034446645388522934, abs=1e-14)
        assert rec.chsh == pytest.approx(1.3070647024048123, abs=1e-14)
        assert rec.fidelity == pytest.approx(0.689631096925682, abs=1e-14)
        assert rec.dominant_label is BellLabel.PSI_PLUS

    def test_nonlocal_point(self):
        rec = evaluate_point(CouplingParams(30.0, 0.0))
        assert rec.region is Region.NONLOCAL
        assert rec.chsh > 2.0
        assert rec.negativity > 0.49

    def test_region_consistency(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            rec = evaluate_point(
                CouplingParams(rng.uniform(-12, 12), rng.uniform(-12, 12))
            )
            if rec.region is Region.SEPARABLE:
                assert rec.negativity < 1e-12
            if rec.region is Region.NONLOCAL:
                assert rec.chsh > 2.0
                assert rec.negativity > 1e-12
            if rec.chsh > 2.0 + 1e-12:
                assert rec.region is Region.NONLOCAL


class TestSpectrum:
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
        rec = twin(0.0, 0.0)
        assert rec.dominant_label is BellLabel.PHI_PLUS and rec.dominant_weight == 0.25
        assert twin(30.0, 0.0).dominant_label is BellLabel.PSI_PLUS
        # two-way ties: the Phi doublet at (-6, 0), and Phi- with Psi+ at
        # energy -2 at (6, 6), where the first maximal weight is not index 0
        for u, v, label in ((-6.0, 0.0, BellLabel.PHI_PLUS), (6.0, 6.0, BellLabel.PHI_MINUS)):
            w = weights_at(u, v)
            assert sorted(w)[-1] == sorted(w)[-2]
            assert twin(u, v).dominant_label is label
            assert core.LABELS[core.evaluate(u, v).dominant[0]] is label


class TestThermalState:
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


class TestChshClosedForm:
    def test_uncorrelated(self):
        assert chsh(CouplingParams(0.0, 0.0)) == 0.0

    def test_frozen_thermal_value(self):
        assert chsh(CouplingParams(3.0, 1.0)) == pytest.approx(B31, abs=1e-14)

    def test_deep_ground_state_approaches_bound(self):
        rec = twin(30.0, 0.0)
        assert abs(rec.chsh - CHSH_QUANTUM_BOUND) < 1e-3
        assert rec.region is Region.NONLOCAL


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


class TestAverageFidelity:
    def test_pure_resource(self):
        # Psi+ carries all the weight at the edge of the envelope
        assert fidelity_and_seed(2000.0, 0.0) == (1.0, BellLabel.PSI_PLUS)

    def test_uniform_resource(self):
        assert fidelity_and_seed(0.0, 0.0)[0] == pytest.approx(0.5)

    def test_frozen_thermal_value(self):
        assert fidelity_and_seed(3.0, 1.0)[0] == pytest.approx(F31, abs=1e-14)


class TestBestFidelity:
    def test_affine_link_to_max_weight(self):
        # best - 2/3 = (2/3) (max_a p_a - 1/2) for the thermal resource
        rng = np.random.default_rng(68)
        for _ in range(100):
            u, v = rng.uniform(-12.0, 12.0, 2).tolist()
            lhs = fidelity_and_seed(u, v)[0] - 2.0 / 3.0
            rhs = (2.0 / 3.0) * (float(np.max(weights_at(u, v))) - 0.5)
            assert abs(lhs - rhs) <= 1e-14
