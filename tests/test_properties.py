"""Property-based tests of the invariants the array core and the contour
tracer must keep: bit equality of the core, over a batch and at N = 1
(`evaluate_point`), with the scalar route `reference.scalar_record`, whose
validating dataclasses check the derived invariants on the core's exact
values (weights a probability vector that never rises with energy,
correlations in the Bell tetrahedron, CHSH in [0, 2 sqrt 2], fidelities in
[1/3, 1]); Psi-minus never dominant; lockstep bisection equal to
bracket-by-bracket bisection; the v -> -v parity of the phase plane; the
region partition; and contour roots that sit on grid edges, one per crossed
edge and each closed loop once, with residuals below the tolerance.

Runs are derandomized, so the suite draws the same examples every time.
"""
import numpy as np
from hypothesis import example, given, settings, strategies as st

from dipolepair import core
from dipolepair.dipolar import COUPLING_LIMIT, BellLabel, CouplingParams, spectrum
from dipolepair.measures import CHSH_BOUNDARY_TOL, CHSH_CLASSICAL_BOUND, chsh_max
from dipolepair.reference import scalar_record
from dipolepair.scan import (
    DEFAULT_ROOT_TOL,
    BoundaryQuantity,
    GridSpec,
    Region,
    bisect_root,
    boundary_field,
    evaluate_point,
    scan_grid,
    trace_boundary,
)

SETTINGS = settings(derandomize=True, deadline=None, database=None)

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


@SETTINGS
@given(points)
@example(AXES)
@example(CORNERS)
@example(LOST)
def test_boundary_fields_equal_evaluate_point_to_the_bit(pts):
    u, v = np.array(pts).T
    records = [scalar_record(CouplingParams(a, b)) for a, b in pts]
    # evaluate_point is the core at N = 1; the fields below call it on a batch
    at_one = [evaluate_point(CouplingParams(a, b)) for a, b in pts]
    assert at_one == records
    np.testing.assert_array_equal(bits([[getattr(r, f) for f in FLOATS] for r in at_one]),
                                  bits([[getattr(r, f) for f in FLOATS] for r in records]))
    # so SpectralData's checks on the scalar weights hold for the core's
    np.testing.assert_array_equal(
        bits(core.weights(u, v)), bits([spectrum(CouplingParams(a, b)).weights for a, b in pts]))
    expected = {
        BoundaryQuantity.CHSH_MINUS_2: [r.chsh - 2.0 for r in records],
        BoundaryQuantity.NEGATIVITY: [r.dominant_weight - 0.5 for r in records],
        BoundaryQuantity.FIDELITY_MINUS_TWO_THIRDS: [r.fidelity - 2.0 / 3.0 for r in records],
    }
    for quantity, want in expected.items():
        field = boundary_field(quantity)
        np.testing.assert_array_equal(bits(field(u, v)), bits(want))
        scalar = field(*pts[0])
        assert type(scalar) is float and bits(scalar) == bits(want[0])


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


@SETTINGS
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


SWAP = {BellLabel.PHI_PLUS: BellLabel.PHI_MINUS, BellLabel.PHI_MINUS: BellLabel.PHI_PLUS}


@SETTINGS
@given(st.floats(-COUPLING_LIMIT, COUPLING_LIMIT - 1.0), st.floats(1e-3, 1000.0),
       st.floats(1e-300, COUPLING_LIMIT), st.integers(2, 12))
def test_v_parity_of_the_scan(u_min, u_span, a, nu):
    # rows v = -a and v = -a + 2a = a: mirror images to the bit
    grid = GridSpec(u_min, min(u_min + u_span, COUPLING_LIMIT), -a, a, nu, 2)
    records = scan_grid(grid)
    below, above = records[:nu], records[nu:]
    for r, m in zip(below, above):
        assert m.u == r.u and m.v == -r.v
        for name in ("chsh", "negativity", "fidelity", "dominant_weight"):
            assert bits(getattr(m, name)) == bits(getattr(r, name))
        assert m.region is r.region
        # Phi+ and Phi- swap, unless their weights tie exactly (as on v = 0,
        # or where 3 |v| is lost against |u|), when both fall to Phi+
        w = core.weights([r.u], [r.v])[0]
        tie = w[BellLabel.PHI_PLUS] == w[BellLabel.PHI_MINUS]
        assert m.dominant_label is (r.dominant_label if tie
                                    else SWAP.get(r.dominant_label, r.dominant_label))


# the whole envelope, plus the scales where the regions meet
scaled = st.one_of(coupling, st.floats(-12.0, 12.0), st.floats(-1.0, 1.0))
scaled_points = st.lists(st.tuples(scaled, scaled), min_size=1, max_size=40)


@SETTINGS
@given(scaled_points)
def test_region_partition(pts):
    u, v = np.array(pts).T
    arrays = core.evaluate(u, v)
    records = [scalar_record(CouplingParams(a, b)) for a, b in pts]
    for k, r in enumerate(records):
        separable = r.negativity < core.SEPARABLE_NEGATIVITY_TOL
        violating = r.chsh > CHSH_CLASSICAL_BOUND + CHSH_BOUNDARY_TOL
        assert (r.region is Region.SEPARABLE) == separable
        # so a point is never both separable and nonlocal
        assert (r.region is Region.NONLOCAL) == (violating and not separable)
        assert core.REGIONS[arrays.region[k]] is r.region


@SETTINGS
@given(scaled_points)
@example(AXES)
@example(CORNERS)
@example(LOST)
def test_psi_minus_is_never_dominant(pts):
    # its level sits at energy 0, never strictly below all three others
    u, v = np.array(pts).T
    assert not np.any(core.evaluate(u, v).dominant == BellLabel.PSI_MINUS)


@SETTINGS
@given(scaled_points)
def test_chsh_violation_is_the_nonlocal_region(pts):
    for a, b in pts:
        p = CouplingParams(a, b)
        assert chsh_max(p).violating == (evaluate_point(p).region is Region.NONLOCAL)


# grids within |u|, |v| <= 60, each axis at least 1e-3 wide
corner = st.floats(-60.0, 59.0)
span = st.floats(1e-3, 120.0)


@st.composite
def grids(draw):
    u_min, v_min = draw(corner), draw(corner)
    return GridSpec(u_min, min(u_min + draw(span), 60.0),
                    v_min, min(v_min + draw(span), 60.0),
                    draw(st.integers(2, 14)), draw(st.integers(2, 14)))


@settings(SETTINGS, max_examples=30)
@given(st.sampled_from(list(BoundaryQuantity)), grids())
def test_contour_roots_sit_on_crossed_edges(quantity, grid):
    field = boundary_field(quantity)
    us, vs = grid.u_coords(), grid.v_coords()
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


def test_a_closed_loop_is_emitted_once():
    # CHSH < 2 at the vertex (6.4, 6.0), > 2 at its four neighbours: one loop
    grid = GridSpec(0.0, 32.0, 4.0, 8.0, 6, 3)
    polylines = trace_boundary(BoundaryQuantity.CHSH_MINUS_2, grid)
    assert [(p.closed, len(p.points)) for p in polylines] == [(True, 4)]
