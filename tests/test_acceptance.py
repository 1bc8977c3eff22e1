"""Acceptance gate: one test per stated criterion, each printing a
[PASS]/[FAIL] line with the measured numbers (run with -s to see them all).

Tolerances are pinned to the stated values; frozen reference numbers were
produced by independent oracles (matrix exponential, dense quadrature,
bracketing root finder) before the package was written.
"""
import math
import time

import numpy as np

from dipolepair import core
from dipolepair.core import CHSH_QUANTUM_BOUND, BellLabel, CouplingParams, evaluate_point
from dipolepair.reference import (
    average_fidelity_quadrature,
    bell_state,
    fano_marginals,
    gibbs,
    hamiltonian_from_tensor,
    hamiltonian_matrix,
    minimum_fidelity,
    negativity,
    projector,
    thermal_state,
)
from dipolepair.scan import (
    BoundaryQuantity,
    GridSpec,
    boundary_field,
    evaluate_grid,
    trace_boundary,
)
from dipolepair.cli import run_cli
from test_core import twin

GRID41 = GridSpec(-10.0, 10.0, -10.0, 10.0, 41, 41)
GRID81 = GridSpec(-10.0, 10.0, -10.0, 10.0, 81, 81)


def grid_params(grid):
    us, vs = grid.coords(np.arange(grid.nu), np.arange(grid.nv))
    return [CouplingParams(float(u), float(v)) for v in vs for u in us]


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_hamiltonian_route_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for p in grid_params(GRID41):
        diff = float(np.max(np.abs(hamiltonian_matrix(p) - hamiltonian_from_tensor(p))))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-14 and elapsed < 1.0
    report(1, ok,
           "matrix vs tensor-contraction Hamiltonian, 41x41 grid: "
           f"max entry diff {worst:.2e} (tol 1e-14), {elapsed:.2f} s (< 1 s)")


def test_criterion_2_thermal_state_matches_gibbs_oracle():
    start = time.perf_counter()
    worst = 0.0
    for p in grid_params(GRID41):
        diff = float(np.max(np.abs(thermal_state(p) - gibbs(hamiltonian_matrix(p)))))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 5.0
    report(2, ok,
           "thermal state from the core's weights vs exponential route, 41x41 grid: "
           f"max entry diff {worst:.2e} (tol 1e-12), {elapsed:.2f} s (< 5 s)")


def test_criterion_3_negativity_closed_form_vs_definition():
    worst = 0.0
    closed = core.evaluate(*np.meshgrid(*GRID41.coords(np.arange(41), np.arange(41)))).negativity
    for p, n in zip(grid_params(GRID41), closed.tolist()):
        full = negativity(thermal_state(p)).value
        worst = max(worst, abs(n - full))

    # the widely printed absolute-value grouping is NOT equivalent to the
    # trace-norm definition: on a pure Bell state it returns 3/4, not 1/2
    def printed_form(c1, c2, c3):
        return (abs(c1 + c3) + abs(1 + c2) + abs(c1 - c3) + abs(1 - c2) - 1) / 4

    bell = negativity(projector(bell_state(BellLabel.PSI_PLUS))).value
    printed_bell = printed_form(1.0, 1.0, -1.0)
    rho_31 = thermal_state(CouplingParams(3.0, 1.0))
    printed_31 = printed_form(*np.diag(fano_marginals(rho_31)[2]))
    definitional_31 = negativity(rho_31).value
    rejected = (
        abs(printed_bell - 0.75) < 1e-14
        and abs(bell - 0.5) < 1e-14
        and abs(printed_31 - definitional_31) > 0.4
    )
    ok = worst < 1e-12 and rejected
    report(3, ok,
           "max(0, max weight - 1/2) vs trace-norm definition, 41x41 grid: "
           f"max diff {worst:.2e} (tol 1e-12); printed abs-value grouping "
           f"rejected (gives {printed_bell:.4g} on a Bell state, definition {bell:.4g})")


def test_criterion_4_fidelity_quadrature_matches_closed_form():
    grid21 = GridSpec(-10.0, 10.0, -10.0, 10.0, 21, 21)
    start = time.perf_counter()
    worst = 0.0
    points = grid_params(grid21)
    for p in points:
        w = core.weights(p.u, p.v)[0]
        quads = [average_fidelity_quadrature(w, label, 2) for label in BellLabel]
        closed = [(1.0 + 2.0 * w[label]) / 3.0 for label in BellLabel]
        # the core's fidelity is the best seed's
        worst = max(worst, *(abs(q - c) for q, c in zip(quads, closed)),
                    abs(max(quads) - evaluate_point(p).fidelity))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 5.0
    report(4, ok,
           f"sphere quadrature vs (1+2p)/3 at {len(points)} grid points x 4 seeds, "
           f"best seed vs the core's fidelity: "
           f"max diff {worst:.2e} (tol 1e-12), {elapsed:.2f} s (< 5 s)")


def test_criterion_5_strong_coupling_limits():
    rec = twin(30.0, 0.0)
    weight, neg, chsh, fid = rec.dominant_weight, rec.negativity, rec.chsh, rec.fidelity
    label_high = twin(-10.0, 10.0).dominant_label
    label_low = twin(-10.0, -10.0).dominant_label
    ok = (
        rec.dominant_label is BellLabel.PSI_PLUS
        and abs(weight - 1.0) < 1e-4
        and abs(neg - 0.5) < 1e-4
        and abs(chsh - CHSH_QUANTUM_BOUND) < 1e-3
        and abs(fid - 1.0) < 1e-4
        and label_high is BellLabel.PHI_MINUS
        and label_low is BellLabel.PHI_PLUS
    )
    report(5, ok,
           f"(30,0): weight {weight:.6f} (1e-4 of 1), negativity {neg:.6f} "
           f"(1e-4 of 1/2), chsh {chsh:.6f} (1e-3 of 2*sqrt(2)), fidelity "
           f"{fid:.6f} (1e-4 of 1); (-10,10) -> {label_high.name}, "
           f"(-10,-10) -> {label_low.name}")


def test_criterion_6_classical_threshold_and_affine_identity():
    exact = minimum_fidelity(2) == 2.0 / 3.0
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(500):
        u, v = rng.uniform(-12.0, 12.0, 2).tolist()
        rec = twin(u, v)
        fidelity, weight = rec.fidelity, rec.dominant_weight
        lhs = fidelity - 2.0 / 3.0
        rhs = (2.0 / 3.0) * (weight - 0.5)
        worst = max(worst, abs(lhs - rhs))
    ok = exact and worst <= 1e-14
    report(6, ok,
           f"minimum_fidelity(2) == 2/3 exactly: {exact}; affine identity "
           f"best - 2/3 = (2/3)(max p - 1/2) at 500 random coupling points: "
           f"max dev {worst:.2e} (tol 1e-14)")


def test_criterion_7_entangled_but_local_region():
    start = time.perf_counter()
    blocks = list(evaluate_grid(GRID81))
    elapsed = time.perf_counter() - start
    u, v, chsh, negativity, fidelity = (
        np.concatenate([getattr(b, name) for b in blocks])
        for name in ("u", "v", "chsh", "negativity", "fidelity")
    )
    entangled_local = int(np.count_nonzero((negativity > 1e-12) & (chsh <= 2.0)))
    nonlocal_separable = int(np.count_nonzero((chsh > 2.0) & (negativity <= 1e-12)))
    witness = int(np.flatnonzero((u == 3.0) & (v == 1.0))[0])
    witness_n, witness_b, witness_f = (
        float(x[witness]) for x in (negativity, chsh, fidelity))
    witness_ok = (
        abs(witness_n - 0.034446645388522934) < 1e-12
        and abs(witness_b - 1.3070647024048123) < 1e-12
        and abs(witness_f - 0.689631096925682) < 1e-12
        and witness_f > 2.0 / 3.0
    )
    ok = (
        entangled_local > 0
        and nonlocal_separable == 0
        and witness_ok
        and elapsed < 10.0
    )
    report(7, ok,
           f"81x81 grid: {entangled_local} entangled-but-local points "
           f"(witness (3,1): N {witness_n:.4f}, B {witness_b:.4f}, "
           f"F {witness_f:.4f} > 2/3), {nonlocal_separable} "
           f"nonlocal-separable points (must be 0), {elapsed:.2f} s (< 10 s)")


def test_criterion_8_boundary_coincidence_and_nesting():
    neg_points = sorted(
        pt
        for poly in trace_boundary(BoundaryQuantity.NEGATIVITY, GRID81)
        for pt in poly.points
    )
    fid_points = sorted(
        pt
        for poly in trace_boundary(BoundaryQuantity.FIDELITY_MINUS_TWO_THIRDS, GRID81)
        for pt in poly.points
    )
    worst = math.inf
    if len(neg_points) == len(fid_points) and neg_points:
        worst = max(
            math.hypot(u1 - u2, v1 - v2)
            for (u1, v1), (u2, v2) in zip(fid_points, neg_points)
        )
    coincide = len(neg_points) == len(fid_points) and worst < 2e-9

    # every point of the chsh = 2 contour sits strictly inside the
    # entangled region: max weight - 1/2 > 0 there
    neg_field = boundary_field(BoundaryQuantity.NEGATIVITY)
    chsh_points = [
        pt
        for poly in trace_boundary(BoundaryQuantity.CHSH_MINUS_2, GRID81)
        for pt in poly.points
    ]
    margins = [neg_field(u, v) for u, v in chsh_points]
    min_margin = min(margins) if margins else math.nan
    nested = len(chsh_points) > 0 and min_margin > 0.0
    ok = coincide and nested
    report(8, ok,
           f"fidelity = 2/3 roots vs entanglement-onset roots: {len(fid_points)} "
           f"vs {len(neg_points)} points, max distance {worst:.2e} (tol 2e-9); "
           f"chsh = 2 contour ({len(chsh_points)} points) strictly inside "
           f"entangled region: min margin {min_margin:.3f}")


def test_criterion_9_degenerate_ground_state():
    w = core.weights(-6.0, 0.0)[0]
    w_plus, w_minus = w[BellLabel.PHI_PLUS], w[BellLabel.PHI_MINUS]
    rec = twin(-6.0, 0.0)
    neg_closed, best = rec.negativity, rec.fidelity
    neg_full = negativity(thermal_state(CouplingParams(-6.0, 0.0))).value
    ok = (
        w_plus == w_minus
        and abs(w_plus - 0.4136219764199625) < 1e-12
        and w_plus < 0.5
        and neg_closed == 0.0
        and neg_full < 1e-12
        and abs(best - 0.6090813176133083) < 1e-12
        and best < 2.0 / 3.0
    )
    report(9, ok,
           f"(-6,0): doublet weight {w_plus:.12f} = {w_minus:.12f} < 1/2, "
           f"negativity {neg_closed} (definition route {neg_full:.2e}), "
           f"best fidelity {best:.12f} < 2/3")


def test_criterion_10_cli_scan_determinism(tmp_path):
    args = ["scan", "--u", "-10:10:81", "--v", "-10:10:81"]
    outputs = []
    start = time.perf_counter()
    for name, extra in (
        ("first.csv", []),
        ("second.csv", []),
        ("workers.csv", ["--workers", "2"]),
    ):
        path = tmp_path / name
        code = run_cli(args + ["--out", str(path)] + extra)
        assert code == 0
        outputs.append(path.read_bytes())
    elapsed = time.perf_counter() - start
    identical = outputs[0] == outputs[1] == outputs[2]
    ok = identical and elapsed < 10.0
    report(10, ok,
           f"81x81 scan twice plus workers=2: byte-identical {identical} "
           f"({len(outputs[0])} bytes), total {elapsed:.2f} s (< 10 s)")
