"""Property-based tests of the invariants the array core and the contour
tracer must keep: bit equality of the core over a batch, and of the boundary
fields, with its scalar twin `evaluate_point`, and of each field
with the core's column on couplings broadcast to a grid, and the same error
from a boundary field on a bad scalar as on an array; the derived invariants
on the exact values of both (weights a probability vector that never rises
with energy, correlations in the Bell tetrahedron, CHSH in [0, 2 sqrt 2],
fidelity in [1/3, 1]); `scan` and `dominant` rows equal to the repr of the
scalar twin's values; Psi-minus never dominant; lockstep bisection equal to
bracket-by-bracket bisection; the v -> -v parity of the phase plane; the
region partition, with CHSH violation as the dense oracle finds it; and
contour roots that sit on grid edges, one per crossed edge and each closed
loop once, with residuals below the tolerance, and saddle cells paired by
the sign at their centre; and every public entry point
returning or raising ValueError on odd arguments, a coupling being whatever
float() reads, and a duck-typed params object read as `CouplingParams`
reads it, error text and record bits included.

Runs are derandomized by the profile in conftest.py, so the suite draws the
same examples every time.
"""
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dipolepair import core
from dipolepair.core import (
    CHSH_BOUNDARY_TOL,
    CHSH_CLASSICAL_BOUND,
    CHSH_QUANTUM_BOUND,
    COUPLING_LIMIT,
    BellLabel,
    CouplingParams,
    Region,
    evaluate_point,
)
from dipolepair.reference import chsh_max_general, fano_marginals, thermal_state
from dipolepair.scan import (
    DEFAULT_ROOT_TOL,
    BoundaryQuantity,
    GridSpec,
    bisect_root,
    boundary_field,
    dominant_rows,
    evaluate_grid,
    scan_rows,
    trace_boundary,
)

coupling = st.floats(-COUPLING_LIMIT, COUPLING_LIMIT, allow_nan=False)
points = st.lists(st.tuples(coupling, coupling), min_size=1, max_size=40)


# edges of the envelope: the axes, the corners, and 3 |v| against |u| at
# the last bits: u +- 3v still rounds away from u at |v| = 1e-13 and |u| =
# 2000, and is lost (the Phi+ and Phi- energies tie) in the other three
AXES = [(0.0, 0.0), (0.0, 2000.0), (0.0, -2000.0), (2000.0, 0.0), (-2000.0, 0.0)]
CORNERS = [(2000.0, 2000.0), (2000.0, -2000.0), (-2000.0, 2000.0), (-2000.0, -2000.0)]
LOST = [(2000.0, 1e-13), (-2000.0, -1e-13), (2000.0, 1e-14), (-2000.0, -1e-14), (-1.0, 1e-17)]

FLOATS = ("u", "v", "chsh", "negativity", "fidelity", "dominant_weight")


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def twin_and_core(u, v):
    """The records of the scalar twin `evaluate_point` and the array
    core's columns at the points (u, v), asserted equal, all eight fields to
    the bit."""
    records = [evaluate_point(CouplingParams(a, b)) for a, b in zip(u.tolist(), v.tolist())]
    batch = core.evaluate(u, v)
    at_one = np.array([[getattr(r, f) for f in FLOATS] for r in records]).T
    np.testing.assert_array_equal(bits(at_one), bits([getattr(batch, f) for f in FLOATS]))
    assert [r.dominant_label for r in records] == [core.LABELS[d] for d in batch.dominant]
    assert [r.region for r in records] == [core.REGIONS[k] for k in batch.region]
    return records, batch


@given(points)
@example(AXES)
@example(CORNERS)
@example(LOST)
@example([(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)])
def test_boundary_fields_equal_evaluate_point_to_the_bit(pts):
    u, v = np.array(pts).T
    # evaluate_point is the core's scalar twin; the batch and the fields
    # below read the core
    records, batch = twin_and_core(u, v)
    expected = {
        BoundaryQuantity.CHSH_MINUS_2: [r.chsh - 2.0 for r in records],
        BoundaryQuantity.NEGATIVITY: [r.dominant_weight - 0.5 for r in records],
        BoundaryQuantity.FIDELITY_MINUS_TWO_THIRDS: [r.fidelity - 2.0 / 3.0 for r in records],
    }
    for quantity, want in expected.items():
        field = boundary_field(quantity)
        np.testing.assert_array_equal(bits(field(u, v)), bits(want))
        # two floats give a float
        scalars = [field(a, b) for a, b in pts]
        assert all(type(x) is float for x in scalars)
        np.testing.assert_array_equal(bits(scalars), bits(want))
    # u down a column against v along a row: each field keeps the broadcast
    # shape and equals the core's column less its threshold there
    crossed = core.evaluate(u[:, None], v)
    for quantity, want in {
        BoundaryQuantity.CHSH_MINUS_2: crossed.chsh - 2.0,
        BoundaryQuantity.NEGATIVITY: crossed.dominant_weight - 0.5,
        BoundaryQuantity.FIDELITY_MINUS_TWO_THIRDS: crossed.fidelity - 2.0 / 3.0,
    }.items():
        values = boundary_field(quantity)(u[:, None], v)
        assert values.shape == (u.size, v.size)
        np.testing.assert_array_equal(bits(values), bits(want.reshape(values.shape)))

    # the core checks only its inputs; the closed forms guarantee the rest,
    # asserted here on the exact values of the core and its scalar twin.
    # Weights: finite, in [0, 1], summing to 1, never rising with energy
    w = core.weights(u, v)
    assert np.all(np.isfinite(w)) and np.all((w >= 0.0) & (w <= 1.0))
    assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-12)
    energies = np.column_stack(((u + 3.0 * v) / 6.0, (u - 3.0 * v) / 6.0, -u / 3.0, 0.0 * u))
    by_energy = np.take_along_axis(w, np.argsort(energies, axis=1, kind="stable"), axis=1)
    assert np.all(np.diff(by_energy, axis=1) <= 1e-12)
    # correlations inside the Bell tetrahedron, whose vertices are the Bell
    # states: each in [-1, 1], and the Bell weights they imply non-negative
    pp, pm, sp, sm = w.T
    c1, c2, c3 = pp - pm + sp - sm, -pp + pm + sp - sm, pp + pm - sp - sm
    assert np.all(np.abs([c1, c2, c3]) <= 1.0 + 1e-12)
    implied = np.array([1 + c1 - c2 + c3, 1 - c1 + c2 + c3, 1 + c1 + c2 - c3, 1 - c1 - c2 - c3]) / 4
    assert np.all(implied >= -1e-12)
    # the dominant weight is the first maximum, the fidelity the best of the
    # four seeds; CHSH, negativity and fidelity stay in their ranges
    np.testing.assert_array_equal(batch.dominant, np.argmax(w, axis=1))
    np.testing.assert_array_equal(batch.dominant_weight, w.max(axis=1))
    np.testing.assert_array_equal(batch.fidelity, np.max((1.0 + 2.0 * w) / 3.0, axis=1))
    # (the twin's values are these to the bit)
    assert np.all((batch.chsh >= 0.0) & (batch.chsh <= CHSH_QUANTUM_BOUND + 1e-12))
    assert np.all((batch.negativity >= 0.0) & (batch.negativity <= 0.5))
    assert np.all((batch.fidelity >= 1.0 / 3.0 - 1e-12) & (batch.fidelity <= 1.0 + 1e-12))


@pytest.mark.parametrize("quantity", [BoundaryQuantity.CHSH_MINUS_2, BoundaryQuantity.NEGATIVITY])
def test_twin_is_the_core_at_contour_roots_and_one_ulp_beside(quantity):
    # roots are bisected to adjacent floats, so here the CHSH value and the
    # largest weight sit on 2 and 1/2 to the last bits, and a step of one ulp
    # crosses them: the points straddle the region thresholds 2 + 1e-12 and
    # negativity 1e-12, where the twin and the core each branch their own way
    grid = GridSpec(-12.0, 12.0, -12.0, 12.0, 9, 9)
    roots = np.array([p for line in trace_boundary(quantity, grid) for p in line.points])
    assert len(roots) >= 8
    u, v = roots.T
    # one ulp either way in u and in v, which includes the step along each root's edge
    steps = [(u, v)] + [(np.nextafter(u, d), v) for d in (-np.inf, np.inf)] + [
        (u, np.nextafter(v, d)) for d in (-np.inf, np.inf)]
    twin_and_core(np.concatenate([a for a, _ in steps]), np.concatenate([b for _, b in steps]))


@pytest.mark.parametrize("quantity", list(BoundaryQuantity))
@pytest.mark.parametrize("u, v", [(float("nan"), 1.0), (1.0, float("-inf")), (10 ** 400, 0.0),
                                  (0.0, -(10 ** 400)), (2000.5, 0.0), (0.0, -2001.0)])
def test_a_bad_scalar_fails_the_field_as_an_array_does(quantity, u, v):
    field = boundary_field(quantity)
    with pytest.raises(ValueError) as on_arrays:
        field(np.array([u], dtype=object), np.array([v], dtype=object))
    with pytest.raises(ValueError) as on_scalars:
        field(u, v)
    assert str(on_scalars.value) == str(on_arrays.value)


# repeated points, and 0.0 beside -0.0 in one column: a formatter that
# shares strings between equal values rather than equal bits writes one
# zero's sign on the other's row
SIGNED_ZEROS = [(0.0, 1.0), (-0.0, 1.0), (0.0, -0.0), (0.0, 1.0)]


@given(points)
@example(SIGNED_ZEROS)
@example(AXES + AXES)
def test_scan_and_dominant_rows_are_the_repr_of_the_scalar_route(pts):
    u, v = np.array(pts).T
    records = [evaluate_point(CouplingParams(a, b)) for a, b in pts]
    for normalized in (False, True):
        rows = "".join(scan_rows([core.evaluate(u, v)], normalized)).splitlines()
        assert rows[1:] == [
            ",".join([repr(r.u), repr(r.v), repr(r.chsh),
                      repr(2.0 * r.negativity if normalized else r.negativity),
                      repr(r.fidelity), repr(r.dominant_weight),
                      r.dominant_label.name.lower(), r.region.value])
            for r in records]
    rows = "".join(dominant_rows([core.evaluate(u, v)])).splitlines()
    assert rows[1:] == [f"{r.u!r},{r.v!r},{r.dominant_label.name.lower()},{r.dominant_weight!r}"
                        for r in records]


# brackets [r - t w, r + (1 - t) w] around the root r of
# (x - r) * (1 + x * x) * scale; pure arithmetic, so an array and a single
# entry give the same bits
brackets = st.lists(
    st.tuples(
        st.floats(-50.0, 50.0, allow_nan=False),
        st.floats(0.0, 1.0),
        st.floats(1e-12, 40.0),
        st.sampled_from([1.0, -1.0, 1e-3]),
    ),
    min_size=1, max_size=30,
)


def cubic(r, scale):
    return lambda x: (x - r) * (1.0 + x * x) * scale


@given(brackets)
def test_lockstep_bisection_equals_bisection_one_bracket_at_a_time(rows):
    lo = np.array([r - t * w for r, t, w, _ in rows])
    hi = np.array([r + (1.0 - t) * w for r, t, w, _ in rows])
    r = np.array([row[0] for row in rows])
    scale = np.array([row[3] for row in rows])
    f = cubic(r, scale)
    lockstep = bisect_root(f, lo, hi, f(lo), f(hi))
    alone = []
    for k in range(len(rows)):
        g = cubic(float(r[k]), float(scale[k]))
        a, b = float(lo[k]), float(hi[k])
        alone.append(bisect_root(g, a, b, g(a), g(b)))
    assert all(type(x) is float for x in alone)
    np.testing.assert_array_equal(bits(lockstep), bits(alone))
    # stacked (2, n) brackets of points, as `trace_boundary` bisects edges: a
    # row with lo == hi settles on its value at once, and the (n,) values of
    # f and the ends broadcast against the brackets
    held = np.linspace(-2.0, 2.0, len(rows))
    points = bisect_root(lambda x: f(x[1]), np.stack((held, lo)), np.stack((held, hi)),
                         f(lo), f(hi))
    np.testing.assert_array_equal(bits(points), bits([held, alone]))


SWAP = {BellLabel.PHI_PLUS: BellLabel.PHI_MINUS, BellLabel.PHI_MINUS: BellLabel.PHI_PLUS}


@given(st.floats(-COUPLING_LIMIT, COUPLING_LIMIT - 1.0), st.floats(1e-3, 1000.0),
       st.floats(1e-300, COUPLING_LIMIT), st.integers(2, 12))
def test_v_parity_of_the_scan(u_min, u_span, a, nu):
    # rows v = -a and v = -a + 2a = a: mirror images to the bit
    grid = GridSpec(u_min, min(u_min + u_span, COUPLING_LIMIT), -a, a, nu, 2)
    (p,) = evaluate_grid(grid)  # at most 24 points: one block
    for r in range(nu):
        m = r + nu
        assert p.u[m] == p.u[r] and p.v[m] == -p.v[r]
        for name in ("chsh", "negativity", "fidelity", "dominant_weight"):
            assert bits(getattr(p, name)[m]) == bits(getattr(p, name)[r])
        assert p.region[m] == p.region[r]
        # Phi+ and Phi- swap, unless their weights tie exactly (as on v = 0,
        # or where 3 |v| is lost against |u|), when both fall to Phi+
        w = core.weights([p.u[r]], [p.v[r]])[0]
        tie = w[BellLabel.PHI_PLUS] == w[BellLabel.PHI_MINUS]
        label = core.LABELS[p.dominant[r]]
        assert core.LABELS[p.dominant[m]] is (label if tie else SWAP.get(label, label))


# the whole envelope, plus the scales where the regions meet
scaled = st.one_of(coupling, st.floats(-12.0, 12.0), st.floats(-1.0, 1.0))
scaled_points = st.lists(st.tuples(scaled, scaled), min_size=1, max_size=40)


@given(scaled_points)
def test_region_partition(pts):
    u, v = np.array(pts).T
    arrays = core.evaluate(u, v)
    records = [evaluate_point(CouplingParams(a, b)) for a, b in pts]
    for k, r in enumerate(records):
        separable = r.negativity < core.SEPARABLE_NEGATIVITY_TOL
        violating = r.chsh > CHSH_CLASSICAL_BOUND + CHSH_BOUNDARY_TOL
        assert (r.region is Region.SEPARABLE) == separable
        # so a point is never both separable and nonlocal
        assert (r.region is Region.NONLOCAL) == (violating and not separable)
        assert core.REGIONS[arrays.region[k]] is r.region


@given(scaled_points)
@example(AXES)
@example(CORNERS)
@example(LOST)
def test_psi_minus_is_never_dominant(pts):
    # its level sits at energy 0, never strictly below all three others
    u, v = np.array(pts).T
    assert not np.any(core.evaluate(u, v).dominant == BellLabel.PSI_MINUS)


@given(scaled_points)
def test_chsh_violation_is_the_nonlocal_region(pts):
    # CHSH of the dense thermal state's correlation matrix, by the general
    # route; points within 1e-9 of the bound are left to the region rules
    for a, b in pts:
        p = CouplingParams(a, b)
        dense = chsh_max_general(fano_marginals(thermal_state(p))[2])
        if abs(dense - CHSH_CLASSICAL_BOUND) > 1e-9:
            assert (dense > CHSH_CLASSICAL_BOUND) == (evaluate_point(p).region is Region.NONLOCAL)


# grids within |u|, |v| <= 60, each axis at least 1e-3 wide
corner = st.floats(-60.0, 59.0)
span = st.floats(1e-3, 120.0)


@st.composite
def grids(draw):
    u_min, v_min = draw(corner), draw(corner)
    return GridSpec(u_min, min(u_min + draw(span), 60.0),
                    v_min, min(v_min + draw(span), 60.0),
                    draw(st.integers(2, 14)), draw(st.integers(2, 14)))


@settings(max_examples=30)
@given(st.sampled_from(list(BoundaryQuantity)), grids())
def test_contour_roots_sit_on_crossed_edges(quantity, grid):
    field = boundary_field(quantity)
    us, vs = grid.coords(np.arange(grid.nu), np.arange(grid.nv))
    positive = field(*np.meshgrid(us, vs)) >= 0.0
    # a crossed edge as (fixed axis, fixed value, along-axis interval, the
    # cells (i, j) it is a side of); cells off the grid never meet
    crossed = [("v", vs[j], us[i], us[i + 1], {(i, j - 1), (i, j)})
               for j, i in zip(*np.nonzero(positive[:, :-1] != positive[:, 1:]))]
    crossed += [("u", us[i], vs[j], vs[j + 1], {(i - 1, j), (i, j)})
                for j, i in zip(*np.nonzero(positive[:-1, :] != positive[1:, :]))]
    polylines = trace_boundary(quantity, grid)
    roots = [pt for poly in polylines for pt in poly.points]

    def on(edge, pt):
        axis, fixed, lo, hi, _ = edge
        at, along = (pt[1], pt[0]) if axis == "v" else pt
        return at == fixed and lo <= along <= hi

    def cells(pt):
        return set().union(*(e[4] for e in crossed if on(e, pt)))

    # one root per crossed edge, none repeated
    assert len(roots) == len(set(roots)) == len(crossed)
    assert all(any(on(e, pt) for pt in roots) for e in crossed)
    assert all(any(on(e, pt) for e in crossed) for pt in roots)
    # each step of a polyline, and the step that closes a loop, stays in a cell
    for poly in polylines:
        pts = poly.points + poly.points[:1] * poly.closed
        assert all(cells(a) & cells(b) for a, b in zip(pts, pts[1:]))
    if roots:
        assert np.all(np.abs(field(*np.array(roots).T)) < DEFAULT_ROOT_TOL)


# all four sides of cell (1, 0) are crossed for each quantity
SADDLE_GRID = GridSpec(-6.8, 11.5, 1.0, 22.0, 3, 3)


@st.composite
def coarse_grids(draw):
    """Grids of 2 to 4 points a side, 5 to 20 wide on each axis, near the
    origin, where the contours bend within a cell: about one in six has a
    saddle cell for some quantity."""
    u_min, v_min = draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))
    return GridSpec(u_min, u_min + draw(st.floats(5.0, 20.0)),
                    v_min, v_min + draw(st.floats(5.0, 20.0)),
                    draw(st.integers(2, 4)), draw(st.integers(2, 4)))


def one_root(roots, at, fixed, lo, hi):
    """The one root whose coordinate `at` (0 for u, 1 for v) is fixed and
    whose other lies between lo and hi."""
    (pt,) = [pt for pt in roots if pt[at] == fixed and lo <= pt[1 - at] <= hi]
    return pt


@settings(max_examples=30)
@given(coarse_grids())
@example(SADDLE_GRID)
def test_saddle_cells_pair_their_roots_by_the_centre_sign(grid):
    us, vs = grid.coords(np.arange(grid.nu), np.arange(grid.nv))
    for quantity in BoundaryQuantity:
        field = boundary_field(quantity)
        positive = field(*np.meshgrid(us, vs)) >= 0.0
        polylines = trace_boundary(quantity, grid)
        roots = [pt for poly in polylines for pt in poly.points]
        joined = set()
        for poly in polylines:
            pts = poly.points + poly.points[:1] * poly.closed
            joined.update(frozenset(step) for step in zip(pts, pts[1:]))

        # bottom, right and top crossed, so the left side is crossed too
        saddles = ((positive[:-1, :-1] != positive[:-1, 1:])
                   & (positive[:-1, 1:] != positive[1:, 1:])
                   & (positive[1:, 1:] != positive[1:, :-1]))
        for j, i in zip(*np.nonzero(saddles)):
            bottom, top = (one_root(roots, 1, vs[k], us[i], us[i + 1]) for k in (j, j + 1))
            left, right = (one_root(roots, 0, us[k], vs[j], vs[j + 1]) for k in (i, i + 1))
            centre = field((us[i] + us[i + 1]) / 2.0, (vs[j] + vs[j + 1]) / 2.0)
            with_right = (centre >= 0.0) == positive[j, i]
            want = ((bottom, right), (top, left)) if with_right else ((bottom, left), (top, right))
            steps = ((bottom, right), (top, left), (bottom, left), (top, right))
            assert {frozenset(p) for p in steps} & joined == {frozenset(p) for p in want}


def test_a_closed_loop_is_emitted_once():
    # CHSH < 2 at the vertex (6.4, 6.0), > 2 at its four neighbours: one loop
    grid = GridSpec(0.0, 32.0, 4.0, 8.0, 6, 3)
    polylines = trace_boundary(BoundaryQuantity.CHSH_MINUS_2, grid)
    assert [(p.closed, len(p.points)) for p in polylines] == [(True, 4)]


# arguments for the fuzz of the entry points: integers beyond the float
# range, Fractions, Decimals, long doubles beyond the float range and below
# its least subnormal, 0-d and one-element arrays, bools, strings, bytes,
# arrays of two values and of none, None and complex numbers, numpy's among
# them, beside plain floats
LONG = np.finfo(np.longdouble)
ODD = [10 ** 400, -10 ** 400, 2 ** 63, Fraction(1, 3), Fraction(10 ** 400, 3),
       Fraction(1, 10 ** 400), Decimal("1.5"), Decimal("sNaN"), Decimal("NaN"),
       Decimal("-Infinity"), Decimal("1e-400"), np.longdouble(1.5), LONG.max, -LONG.max,
       LONG.smallest_subnormal, np.array(1.0), np.array([1.0]), np.array([-0.5]),
       np.array([1.0, 2.0]), np.array([]), True,
       False, "3", "x", "nan", b"3", b"x", None, 1 + 2j, 1j, np.complex128(1 + 2j),
       np.complex64(1j), np.array(1 + 2j), np.array([1j]), 0.5, -1.0, 1e-9, 2000.0, 3]
GRID5 = GridSpec(-10.0, 10.0, -10.0, 10.0, 5, 5)
# each public entry point, with the well-formed arguments that odd ones replace
ENTRY_POINTS = {
    "CouplingParams": (CouplingParams, (3.0, 1.0)),
    "GridSpec": (GridSpec, (0.0, 1.0, 0.0, 1.0, 3, 3)),
    "evaluate": (core.evaluate, (3.0, 1.0)),
    "evaluate_point": (lambda u, v: evaluate_point(SimpleNamespace(u=u, v=v)), (3.0, 1.0)),
    "boundary_field": (boundary_field(BoundaryQuantity.CHSH_MINUS_2), (3.0, 1.0)),
    "trace_boundary": (lambda tol: trace_boundary(BoundaryQuantity.NEGATIVITY, GRID5, tol=tol),
                       (DEFAULT_ROOT_TOL,)),
    "bisect_root": (lambda *bracket: bisect_root(lambda x: x - 0.25, *bracket),
                    (0.0, 1.0, -0.25, 0.75)),
}


# an entry point's name and its arguments, each the well-formed one or odd
entry_calls = st.one_of(*(
    st.tuples(st.just(name), st.tuples(*(st.one_of(st.just(x), st.sampled_from(ODD))
                                         for x in args)))
    for name, (_, args) in ENTRY_POINTS.items()))


@settings(max_examples=300)
@given(entry_calls)
@example(("CouplingParams", ("3", 1)))
@example(("evaluate_point", (np.array([]), 0.0)))
@example(("evaluate_point", (np.array([1.0]), 0.0)))
@example(("bisect_root", (1 + 2j, 5.0, -1.0, 1.0)))
@example(("bisect_root", (object(), 5.0, -1.0, 1.0)))
@example(("bisect_root", (10 ** 400, 5.0, -1.0, 1.0)))
@example(("bisect_root", (0.0, np.array([1.0]), -0.25, 0.75)))
def test_entry_points_return_or_raise_a_value_error(case):
    name, args = case
    try:
        result = ENTRY_POINTS[name][0](*args)
    except ValueError as exc:
        # a duck-typed params object is read as `CouplingParams` reads it
        if name == "evaluate_point":
            with pytest.raises(ValueError) as want:
                CouplingParams(*args)
            assert str(exc) == str(want.value)
        return
    # a coupling is whatever float() reads as a finite number within the limit
    if name == "CouplingParams":
        assert (result.u, result.v) == tuple(float(x) for x in args)
    # a duck-typed object gives its CouplingParams' record, to the bit: repr tells -0.0 from 0.0
    if name == "evaluate_point":
        assert repr(result) == repr(evaluate_point(CouplingParams(*args)))


def test_the_array_core_names_the_coupling_that_couplingparams_names():
    # a pair with two bad couplings: the array core reads and checks u before
    # it reads v, as CouplingParams does, so both name the same one.  Arrays of
    # one or more entries are points to the core but no coupling to
    # CouplingParams, so only pairs of single values are compared
    values = [x for x in ODD + [3.0, 1.0] if np.ndim(x) == 0]
    for u in values:
        for v in values:
            try:
                CouplingParams(u, v)
            except ValueError as exc:
                for route in (core.evaluate, core.weights):
                    with pytest.raises(ValueError) as got:
                        route(u, v)
                    assert str(got.value) == str(exc), (u, v, route.__name__)
