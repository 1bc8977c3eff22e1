"""Property-based tests of the invariants the array core and the contour
tracer must keep: bit equality of the boundary fields with the per-point
route, lockstep bisection equal to bracket-by-bracket bisection, and the
v -> -v parity of the phase plane.

Runs are derandomized, so the suite draws the same examples every time.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from dipolepair import core
from dipolepair.dipolar import COUPLING_LIMIT, CouplingParams
from dipolepair.linalg import BellLabel
from dipolepair.scan import (
    BoundaryQuantity,
    GridSpec,
    bisect_root,
    boundary_field,
    evaluate_point,
    scan_grid,
)

SETTINGS = settings(derandomize=True, deadline=None, database=None)

coupling = st.floats(-COUPLING_LIMIT, COUPLING_LIMIT, allow_nan=False)
points = st.lists(st.tuples(coupling, coupling), min_size=1, max_size=40)


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


@SETTINGS
@given(points)
def test_boundary_fields_equal_evaluate_point_to_the_bit(pts):
    u, v = np.array(pts).T
    records = [evaluate_point(CouplingParams(a, b)) for a, b in pts]
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
