"""Tests for grid scans, region classification and contour tracing."""
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dipolepair import core, scan
from dipolepair.core import BellLabel, CouplingParams, evaluate_point
from dipolepair.scan import (
    BLOCK_POINTS,
    BoundaryQuantity,
    GridSpec,
    GridTooLargeError,
    bisect_root,
    boundary_field,
    boundary_rows,
    dominant_rows,
    evaluate_grid,
    scan_rows,
    trace_boundary,
)
from test_core import beyond_limit

# independently frozen root of max weight = 1/2 along v = 1 (brentq oracle)
U_STAR_V1 = 2.679576426508122


class TestGridSpec:
    def test_coordinates(self):
        g = GridSpec(0.0, 1.0, -1.0, 1.0, 2, 3)
        us, vs = g.coords(np.arange(2), np.arange(3))
        np.testing.assert_array_equal(us, [0.0, 1.0])
        np.testing.assert_array_equal(vs, [-1.0, 0.0, 1.0])
        # min + i * ((max - min) / (count - 1)), which the output bytes are
        # held to: the last coordinate is not snapped onto max
        g = GridSpec(-10.555095128477667, 7.654342944142182, 0.0, 1.0, 109, 2)
        assert g.coords(0, 0)[0] == -10.555095128477667
        assert g.coords(108, 0)[0] == 7.654342944142183

    def test_corners_exact(self):
        g = GridSpec(-10.0, 10.0, -10.0, 10.0, 81, 81)
        assert g.coords(0, 0) == (-10.0, -10.0)
        assert g.coords(80, 80) == (10.0, 10.0)

    def test_coordinates_of_an_index_array_are_those_of_each_index(self):
        # evaluate_grid and trace_boundary take coordinates of index arrays,
        # the end check of the bounds those of one integer index
        g = GridSpec(-10.555095128477667, 7.654342944142182, -2000.0, 1999.9, 109, 257)
        i, j = np.arange(109), np.arange(257)
        us, vs = g.coords(i, j)
        for a, b in ((us, [g.coords(k, 0)[0] for k in range(109)]),
                     (vs, [g.coords(0, k)[1] for k in range(257)]),
                     (us, [g.coords(k, 0)[0] for k in i]),
                     (vs, [g.coords(0, k)[1] for k in j])):
            np.testing.assert_array_equal(a.view(np.int64), np.array(b).view(np.int64))

    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.0, 0.0, 1.0, 2, 2)

    @pytest.mark.parametrize("nu", [1, math.inf, math.nan, None, np.complex128(3),
                                    np.complex64(3)])
    def test_rejects_single_point_axis(self, nu):
        with pytest.raises(ValueError, match="nu must be an integer >= 2"):
            GridSpec(0.0, 1.0, 0.0, 1.0, nu, 2)

    @pytest.mark.parametrize("x", [math.nan, math.inf, None])
    def test_rejects_non_finite_bounds(self, x):
        for k, name in enumerate(("u_min", "u_max", "v_min", "v_max")):
            bounds = [0.0, 1.0, 0.0, 1.0]
            bounds[k] = x
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                GridSpec(*bounds, 2, 2)

    def test_rejects_bounds_beyond_stability_limit(self):
        with pytest.raises(ValueError, match=beyond_limit("u_min", 3000.0)):
            GridSpec(-3000.0, 0.0, 0.0, 1.0, 3, 3)
        with pytest.raises(ValueError, match=beyond_limit("v_max", 2000.5)):
            GridSpec(0.0, 1.0, 0.0, 2000.5, 3, 3)
        # finite bounds whose axis step overflows: rejected as bounds, by
        # their own size, before any axis arithmetic can warn
        with pytest.raises(ValueError, match=beyond_limit("u_min", 1.7e308)):
            GridSpec(-1.7e308, 1.7e308, 0.0, 1.0, 2, 2)
        # the last coordinate of these axes rounds past 2000
        with pytest.raises(ValueError, match=beyond_limit("u", 2000.0000000000005)):
            GridSpec(-2000.0, 2000.0, 0.0, 1.0, 16, 2)
        with pytest.raises(ValueError, match=beyond_limit("v", 2000.0000000000005)):
            GridSpec(0.0, 1.0, -2000.0, 2000.0, 2, 16)
        assert GridSpec(-2000.0, 2000.0, -2000.0, 2000.0, 41, 41).coords(40, 40) == (2000.0, 2000.0)

    def test_point_budget(self):
        with pytest.raises(GridTooLargeError, match=re.escape(
                "grid has 100000 * 10000 = 1000000000 points, budget is 100000000")):
            GridSpec(0.0, 1.0, 0.0, 1.0, 100_000, 10_000)
        # a count beyond the float range meets the budget before any
        # coordinate divides by it, and counts of over 40 digits are shortened
        big = "00000000000000000...0000000000000000000"
        with pytest.raises(GridTooLargeError, match=re.escape(
                f"grid has 1{big} * 2 = 2{big} points, budget is 100000000")):
            GridSpec(0.0, 1.0, 0.0, 1.0, 10 ** 400, 2)
        # the guard subclasses ValueError so generic handling still works
        assert issubclass(GridTooLargeError, ValueError)


def grid_columns(grid):
    """`evaluate_grid`'s blocks joined column by column."""
    blocks = list(evaluate_grid(grid))
    return core.PhaseArrays(**{name: np.concatenate([getattr(b, name) for b in blocks])
                               for name in blocks[0]._asdict()})


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


class TestEvaluateGrid:
    def test_row_major_order(self):
        g = GridSpec(0.0, 1.0, 10.0, 11.0, 2, 2)
        p = grid_columns(g)
        assert list(zip(p.u.tolist(), p.v.tolist())) == [
            (0.0, 10.0), (1.0, 10.0), (0.0, 11.0), (1.0, 11.0),
        ]

    def test_matches_pointwise_evaluation(self):
        grids = [
            GridSpec(-3.0, 3.0, -2.0, 2.0, 5, 4),
            # the envelope, where weights underflow to exactly 0 and 1
            GridSpec(-2000.0, 2000.0, -2000.0, 2000.0, 21, 21),
            # the u = 0 and v = 0 tie lines, where Bell weights are equal
            GridSpec(-1.0, 1.0, -1.0, 1.0, 21, 21),
            GridSpec(-12.0, 12.0, -12.0, 12.0, 25, 25),
        ]
        for g in grids:
            p = grid_columns(g)
            records = [evaluate_point(CouplingParams(u, v))
                       for u, v in zip(p.u.tolist(), p.v.tolist())]
            for name in ("u", "v", "chsh", "negativity", "fidelity", "dominant_weight"):
                np.testing.assert_array_equal(
                    bits(getattr(p, name)), bits([getattr(r, name) for r in records]))
            assert [core.LABELS[d] for d in p.dominant.tolist()] == [
                r.dominant_label for r in records]
            assert [core.REGIONS[k] for k in p.region.tolist()] == [r.region for r in records]

    def test_v_parity_of_reported_measures(self):
        # u fixed, v -> -v leaves chsh, negativity and fidelity unchanged
        g = GridSpec(-6.0, 6.0, -4.0, 4.0, 7, 9)
        p = grid_columns(g)
        at = {(u, v): k for k, (u, v) in enumerate(zip(p.u.tolist(), p.v.tolist()))}
        for (u, v), k in at.items():
            mirror = at[(u, -v)]
            for column in (p.chsh, p.negativity, p.fidelity):
                assert abs(column[k] - column[mirror]) < 1e-12

    def test_ground_state_labels(self):
        g = GridSpec(-10.0, 10.0, -10.0, 10.0, 3, 3)
        p = grid_columns(g)
        entries = {(u, v): core.LABELS[d]
                   for u, v, d in zip(p.u.tolist(), p.v.tolist(), p.dominant.tolist())}
        assert entries[(10.0, 0.0)] is BellLabel.PSI_PLUS
        assert entries[(-10.0, 10.0)] is BellLabel.PHI_MINUS
        assert entries[(-10.0, -10.0)] is BellLabel.PHI_PLUS

    def test_psi_minus_never_dominant(self):
        g = GridSpec(-10.0, 10.0, -10.0, 10.0, 21, 21)
        for d in grid_columns(g).dominant.tolist():
            assert core.LABELS[d] is not BellLabel.PSI_MINUS

    def test_weights_match_spectrum(self):
        g = GridSpec(-2.0, 2.0, -2.0, 2.0, 5, 5)
        p = grid_columns(g)
        for u, v, d, weight in zip(p.u.tolist(), p.v.tolist(), p.dominant.tolist(),
                                   p.dominant_weight.tolist()):
            w = core.weights(u, v)[0]
            assert weight == w[core.LABELS[d]] == w.max()

    def test_memory_does_not_grow_with_an_axis(self):
        # each block's coordinates come from its own indices: about 3 MB at
        # 10^6 x 2 and 2.2 MB at 10^4 x 2, where a whole u axis took 16 MB
        def peak(nu):
            tracemalloc.start()
            try:
                for _ in evaluate_grid(GridSpec(-10.0, 10.0, -10.0, 10.0, nu, 2)):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(10 ** 4), peak(10 ** 6)
        assert large < 4e6 and large < 1.5 * small


class TestBisection:
    def test_linear_root(self):
        root = bisect_root(lambda x: x - 0.3, 0.0, 1.0, -0.3, 0.7)
        assert root == pytest.approx(0.3, abs=1e-15)

    def test_runs_to_floating_point_exhaustion(self):
        f = lambda x: math.tanh(3.0 * (x - 1.0 / 3.0))
        root = bisect_root(f, 0.0, 1.0, f(0.0), f(1.0))
        assert abs(root - 1.0 / 3.0) < 1e-15

    def test_identical_paths_for_proportional_fields(self):
        # sign-driven bisection cannot tell f from (2/3) f
        f = lambda x: math.sin(x) - 0.42
        g = lambda x: (2.0 / 3.0) * (math.sin(x) - 0.42)
        a = bisect_root(f, 0.0, 1.5, f(0.0), f(1.5))
        b = bisect_root(g, 0.0, 1.5, g(0.0), g(1.5))
        assert a == b

    def test_rejects_bad_bracket(self):
        with pytest.raises(ValueError):
            bisect_root(lambda x: x, 1.0, 2.0, 1.0, 2.0)
        # a nan end value has no sign, at either end
        for f_lo, f_hi in ((math.nan, 0.7), (-0.3, math.nan)):
            with pytest.raises(ValueError, match="end values must be finite"):
                bisect_root(lambda x: x - 0.3, 0.0, 1.0, f_lo, f_hi)
        # a nan end never settles, and an infinite one came back as a root;
        # the field gives up rather than loop forever
        calls = []

        def field(x):
            calls.append(x)
            if len(calls) > 10_000:
                raise RuntimeError("bisection does not settle")
            return x

        for lo, hi in ((math.nan, 1.0), (-1.0, math.nan), (-math.inf, 1.0)):
            with pytest.raises(ValueError, match="ends must be finite"):
                bisect_root(field, lo, hi, -1.0, 1.0)
        # a complex number, another non-number or an integer beyond the float
        # range is no finite float either, as an end or as an end value
        for bad in (1 + 2j, object(), 10 ** 400):
            with pytest.raises(ValueError, match="^bisection bracket ends must be finite$"):
                bisect_root(field, bad, 5.0, -1.0, 1.0)
            with pytest.raises(ValueError, match="^bisection bracket end values must be finite$"):
                bisect_root(field, -1.0, 1.0, -1.0, bad)

    def test_entanglement_onset_on_segment(self):
        field = boundary_field(BoundaryQuantity.NEGATIVITY)
        f = lambda u: field(u, 1.0)
        root = bisect_root(f, 2.0, 3.0, f(2.0), f(3.0))
        assert root == pytest.approx(U_STAR_V1, abs=1e-12)
        # max weight passes through 1/2 there
        assert float(core.weights(root, 1.0).max()) == pytest.approx(0.5, abs=1e-12)


class TestBoundaryFields:
    def test_signs_at_reference_points(self):
        neg = boundary_field(BoundaryQuantity.NEGATIVITY)
        chsh = boundary_field(BoundaryQuantity.CHSH_MINUS_2)
        fid = boundary_field(BoundaryQuantity.FIDELITY_MINUS_TWO_THIRDS)
        assert neg(0.0, 0.0) < 0 and neg(30.0, 0.0) > 0
        assert chsh(3.0, 1.0) < 0 and chsh(30.0, 0.0) > 0
        assert fid(0.0, 0.0) < 0 and fid(3.0, 1.0) > 0

    def test_fidelity_field_is_proportional_to_negativity_field(self):
        neg = boundary_field(BoundaryQuantity.NEGATIVITY)
        fid = boundary_field(BoundaryQuantity.FIDELITY_MINUS_TWO_THIRDS)
        rng = np.random.default_rng(77)
        for _ in range(100):
            u, v = rng.uniform(-10, 10, size=2)
            assert abs(fid(u, v) - (2.0 / 3.0) * neg(u, v)) < 1e-14


class TestTraceBoundary:
    def test_residuals_below_tolerance(self):
        g = GridSpec(-8.0, 8.0, -8.0, 8.0, 17, 17)
        for quantity in BoundaryQuantity:
            field = boundary_field(quantity)
            for poly in trace_boundary(quantity, g):
                assert poly.quantity is quantity
                for u, v in poly.points:
                    assert abs(field(u, v)) < 1e-9

    def test_entanglement_onset_crosses_frozen_root(self):
        g = GridSpec(2.0, 3.0, 0.5, 1.5, 2, 3)  # contains the v = 1 row
        polys = trace_boundary(BoundaryQuantity.NEGATIVITY, g)
        points = [pt for poly in polys for pt in poly.points]
        on_row = [u for u, v in points if v == 1.0]
        assert len(on_row) == 1
        assert on_row[0] == pytest.approx(U_STAR_V1, abs=1e-12)

    def test_no_chsh_contour_in_local_window(self):
        g = GridSpec(-1.0, 1.0, -1.0, 1.0, 9, 9)
        assert trace_boundary(BoundaryQuantity.CHSH_MINUS_2, g) == []

    def test_deterministic(self):
        g = GridSpec(-9.0, 9.0, -9.0, 9.0, 15, 15)
        a = trace_boundary(BoundaryQuantity.NEGATIVITY, g)
        b = trace_boundary(BoundaryQuantity.NEGATIVITY, g)
        assert a == b

    def test_fidelity_contour_coincides_with_entanglement_onset(self):
        g = GridSpec(-10.0, 10.0, -10.0, 10.0, 21, 21)
        neg_pts = sorted(
            pt for poly in trace_boundary(BoundaryQuantity.NEGATIVITY, g)
            for pt in poly.points
        )
        fid_pts = sorted(
            pt for poly in trace_boundary(
                BoundaryQuantity.FIDELITY_MINUS_TWO_THIRDS, g
            )
            for pt in poly.points
        )
        assert len(neg_pts) == len(fid_pts)
        for (u1, v1), (u2, v2) in zip(neg_pts, fid_pts):
            assert math.hypot(u1 - u2, v1 - v2) < 2e-9

    def test_saddle_cell_pairs_sides_by_the_centre_sign(self):
        # all four sides of cell (1, 0) are crossed: the centre sign joins
        # bottom to right for chsh and bottom to left for the other two;
        # frozen from the per-cell implementation
        g = GridSpec(-6.8, 11.5, 1.0, 22.0, 3, 3)
        far_corner = (False, ((11.5, 11.456229051250105), (11.456548652125424, 11.5),
                              (11.5, 11.542832622099182)))
        expected = {
            BoundaryQuantity.CHSH_MINUS_2: [
                (False, ((5.151959795304562, 1.0), (11.5, 10.62065191025731))),
                (False, ((-6.8, 1.4850280985885735), (2.3500000000000005, 4.873604394037637),
                         (10.681838501872313, 11.5), (11.5, 12.22619960305496))),
            ],
            BoundaryQuantity.NEGATIVITY: [
                (False, ((-2.142859857544153, 1.0), (2.3500000000000005, 3.1869447411941665),
                         (2.679576426508122, 1.0))),
                far_corner,
            ],
            BoundaryQuantity.FIDELITY_MINUS_TWO_THIRDS: [
                (False, ((-2.142859857544153, 1.0), (2.3500000000000005, 3.1869447411941665),
                         (2.6795764265081212, 1.0))),
                far_corner,
            ],
        }
        for quantity, want in expected.items():
            polys = trace_boundary(quantity, g)
            assert [(p.closed, p.points) for p in polys] == want

    def test_a_saddle_centre_of_exactly_zero_counts_as_positive(self, monkeypatch):
        # u v is 0.0 at the centre of the one cell: like a grid point's 0.0,
        # it reads as positive, which joins bottom to right and top to left
        monkeypatch.setattr(scan, "boundary_field", lambda quantity: lambda u, v: u * v)
        polys = trace_boundary(BoundaryQuantity.NEGATIVITY, GridSpec(-1.0, 1.0, -1.0, 1.0, 2, 2))
        assert [p.points for p in polys] == [((0.0, -1.0), (1.0, 0.0)), ((0.0, 1.0), (-1.0, 0.0))]

    def test_memory_is_a_few_bytes_per_grid_point(self):
        # a sign byte per point, the crossings and the core's working blocks:
        # about 4.7 MB at 1001 x 1001, where a float grid alone takes 8 MB
        tracemalloc.start()
        try:
            trace_boundary(BoundaryQuantity.CHSH_MINUS_2, GridSpec(-10, 10, -10, 10, 1001, 1001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_core_block_memory_per_point(self):
        # one block of the core works in 1-D columns, with int8 labels and
        # regions: about 112 bytes per point at its peak
        rng = np.random.default_rng(3)
        u, v = rng.uniform(-10, 10, (2, BLOCK_POINTS))
        core.evaluate(u, v)  # warm-up: numpy's first-call allocations
        tracemalloc.start()
        try:
            core.evaluate(u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 124 * BLOCK_POINTS

    def test_rejects_bad_tolerance(self):
        g = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
        with pytest.raises(ValueError):
            trace_boundary(BoundaryQuantity.NEGATIVITY, g, tol=0.0)
        # an integer beyond the float range, and a Fraction that a root
        # misses, which the error message formats as a float
        g = GridSpec(-9.0, 9.0, -9.0, 9.0, 3, 3)
        with pytest.raises(ValueError, match="integer too large"):
            trace_boundary(BoundaryQuantity.NEGATIVITY, g, tol=10 ** 400)
        with pytest.raises(ValueError, match="not below the tolerance 1e-300"):
            trace_boundary(BoundaryQuantity.NEGATIVITY, g, tol=Fraction(1, 10 ** 300))
        # positive values that round to 0.0 as floats are not positive tolerances
        for tol in (Fraction(1, 10 ** 400), np.longdouble("1e-400")):
            with pytest.raises(ValueError, match="^tolerance must be positive, got "):
                trace_boundary(BoundaryQuantity.NEGATIVITY, g, tol=tol)


class TestCsvRows:
    def test_scan_rows_shape_and_header(self):
        g = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
        lines = "".join(scan_rows(evaluate_grid(g))).splitlines()
        assert lines[0] == "u,v,chsh,negativity,fidelity,dominant_weight,dominant_label,region"
        assert len(lines) == 5
        assert lines[1].split(",")[0] == "0.0"

    def test_scan_rows_roundtrip_floats(self):
        rec = evaluate_point(CouplingParams(3.0, 1.0))
        line = "".join(scan_rows([core.evaluate(3.0, 1.0)])).splitlines()[1]
        fields = line.split(",")
        assert float(fields[3]) == rec.negativity
        assert float(fields[4]) == rec.fidelity
        assert fields[6] == "psi_plus"
        assert fields[7] == "entangled_local"

    def test_normalized_negativity_doubles(self):
        block = core.evaluate(3.0, 1.0)
        plain = "".join(scan_rows([block])).splitlines()[1].split(",")[3]
        doubled = "".join(scan_rows([block], normalized_negativity=True)).splitlines()
        doubled = doubled[1].split(",")[3]
        assert float(doubled) == 2.0 * float(plain)

    def test_boundary_rows(self):
        g = GridSpec(2.0, 3.0, 0.5, 1.5, 2, 3)
        polylines = trace_boundary(BoundaryQuantity.NEGATIVITY, g)
        lines = "".join(boundary_rows(polylines)).splitlines()
        assert lines[0] == "contour_id,u,v"
        assert all(line.split(",")[0] == "0" for line in lines[1:])

    def test_dominant_rows(self):
        g = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
        lines = "".join(dominant_rows(evaluate_grid(g))).splitlines()
        assert lines[0] == "u,v,dominant_label,dominant_weight"
        assert len(lines) == 5
        assert lines[1].split(",")[2] == "phi_plus"
