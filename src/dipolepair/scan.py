"""Phase-plane sweeps over the couplings (u, v) and critical-contour tracing.

Each grid point is classified into one of three regions:

    separable        negativity < 1e-12
    entangled_local  entangled but CHSH <= 2
    nonlocal         CHSH > 2 (+ 1e-12)

Three signed boundary fields share the same zero sets as the physically
interesting transitions: chsh - 2, max_a p_a - 1/2 (signed version of the
negativity onset) and fidelity - 2/3.  Single points, scans, maps and
contours all read the array core.  Contours are traced by bisecting the sign changes along
grid edges in lockstep and joining the roots cell by cell (marching
squares, saddle cells split by the sign at the centre).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator

import numpy as np

from . import core
from .core import Region
from .dipolar import COUPLING_LIMIT, BellLabel, CouplingParams

GRID_POINT_LIMIT = 10 ** 8
DEFAULT_ROOT_TOL = 1e-9
# grid points per call into the array core; bounds a scan's working memory
BLOCK_POINTS = 1 << 14

SCAN_HEADER = "u,v,chsh,negativity,fidelity,dominant_weight,dominant_label,region"
BOUNDARY_HEADER = "contour_id,u,v"
DOMINANT_HEADER = "u,v,dominant_label,dominant_weight"


class BoundaryQuantity(Enum):
    """Signed fields whose zero sets are the critical boundaries."""

    CHSH_MINUS_2 = "chsh"
    NEGATIVITY = "negativity"
    FIDELITY_MINUS_TWO_THIRDS = "fidelity"


class GridTooLargeError(ValueError):
    """Requested grid exceeds the allowed point budget."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid over the coupling plane.

    Coordinates follow min + i * (max - min) / (count - 1), so corners land
    exactly on the requested bounds.
    """

    u_min: float
    u_max: float
    v_min: float
    v_max: float
    nu: int
    nv: int

    def __post_init__(self):
        for name in ("u_min", "u_max", "v_min", "v_max"):
            x = float(getattr(self, name))
            if not np.isfinite(x):
                raise ValueError(f"{name} must be finite, got {x!r}")
            object.__setattr__(self, name, x)
        for name in ("nu", "nv"):
            n = getattr(self, name)
            try:
                ok = int(n) == n and int(n) >= 2
            except (TypeError, ValueError, OverflowError):  # None, nan, inf
                ok = False
            if not ok:
                raise ValueError(f"{name} must be an integer >= 2, got {n!r}")
            object.__setattr__(self, name, int(n))
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise ValueError("grid bounds must satisfy min < max on both axes")
        # coordinates grow with the index, so the end points are the extremes;
        # the last one can overshoot max by an ulp
        for name, lo, hi, n in (("u", self.u_min, self.u_max, self.nu),
                                ("v", self.v_min, self.v_max, self.nv)):
            for x in _axis(lo, hi, n, np.array([0, n - 1])).tolist():
                if abs(x) > COUPLING_LIMIT:
                    raise ValueError(
                        f"grid reaches |{name}| = {abs(x)!r}, beyond the stability "
                        f"limit {COUPLING_LIMIT}"
                    )
        if self.nu * self.nv > GRID_POINT_LIMIT:
            raise GridTooLargeError(
                f"grid has {self.nu} * {self.nv} = {self.nu * self.nv} points, "
                f"budget is {GRID_POINT_LIMIT}"
            )

    def u_coords(self) -> np.ndarray:
        return _axis(self.u_min, self.u_max, self.nu, np.arange(self.nu))

    def v_coords(self) -> np.ndarray:
        return _axis(self.v_min, self.v_max, self.nv, np.arange(self.nv))


def _axis(lo: float, hi: float, n: int, indices: np.ndarray) -> np.ndarray:
    return lo + indices * ((hi - lo) / (n - 1))


@dataclass(frozen=True)
class ScanRecord:
    """One evaluated grid point."""

    u: float
    v: float
    chsh: float
    negativity: float
    fidelity: float
    dominant_weight: float
    dominant_label: BellLabel
    region: Region


def _blocks(grid: GridSpec) -> Iterator[core.PhaseArrays]:
    """The core evaluated on consecutive row-major runs of grid points."""
    us, vs = grid.u_coords(), grid.v_coords()
    total = grid.nu * grid.nv
    for start in range(0, total, BLOCK_POINTS):
        k = np.arange(start, min(start + BLOCK_POINTS, total))
        yield core.evaluate(us[k % grid.nu], vs[k // grid.nu])


def _records(b: core.PhaseArrays) -> Iterator[ScanRecord]:
    """One record per point of an evaluated block, in block order."""
    labels = [core.LABELS[i] for i in b.dominant.tolist()]
    regions = [core.REGIONS[i] for i in b.region.tolist()]
    for row in zip(b.u.tolist(), b.v.tolist(), b.chsh.tolist(),
                   b.negativity.tolist(), b.fidelity.tolist(),
                   b.dominant_weight.tolist(), labels, regions):
        yield ScanRecord(*row)


def evaluate_point(params: CouplingParams) -> ScanRecord:
    """All reported quantities of the thermal state at one coupling point:
    the array core at N = 1."""
    return next(_records(core.evaluate(params.u, params.v)))


def scan_records(grid: GridSpec) -> Iterator[ScanRecord]:
    """Every grid point, row-major (v outer, u inner), computed a block of
    points at a time so memory does not grow with the grid."""
    for b in _blocks(grid):
        yield from _records(b)


def scan_grid(grid: GridSpec, workers: int | None = None) -> list[ScanRecord]:
    """Evaluate every grid point, row-major (v outer, u inner).

    `workers` is accepted for compatibility and has no effect: the whole
    grid is one array computation, and results equal `evaluate_point` at
    every point.
    """
    return list(scan_records(grid))


def dominant_entries(grid: GridSpec) -> Iterator[tuple[float, float, BellLabel, float]]:
    """Dominant Bell component at every grid point, row-major, a block of
    points at a time.  Exact ties fall to the earlier label."""
    for b in _blocks(grid):
        labels = [core.LABELS[i] for i in b.dominant.tolist()]
        yield from zip(b.u.tolist(), b.v.tolist(), labels, b.dominant_weight.tolist())


def dominant_map(grid: GridSpec) -> list[tuple[float, float, BellLabel, float]]:
    """Dominant Bell component on the grid, row-major."""
    return list(dominant_entries(grid))


def _field_values(quantity: BoundaryQuantity, p: core.PhaseArrays) -> np.ndarray:
    if quantity is BoundaryQuantity.CHSH_MINUS_2:
        return p.chsh - 2.0
    if quantity is BoundaryQuantity.NEGATIVITY:
        # signed distance through the entanglement onset: max weight - 1/2
        return p.dominant_weight - 0.5
    return p.fidelity - 2.0 / 3.0


def boundary_field(quantity: BoundaryQuantity) -> Callable:
    """Signed field whose zero set is the requested boundary, read from the
    array core; it takes u, v as floats (giving a float) or arrays."""
    quantity = BoundaryQuantity(quantity)

    def field(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        values = _field_values(quantity, core.evaluate(u, v)).reshape(u.shape)
        return float(values) if values.ndim == 0 else values

    return field


@dataclass(frozen=True)
class ContourPolyline:
    """Ordered chain of boundary roots; `closed` marks a loop whose last
    point connects back to the first."""

    quantity: BoundaryQuantity
    points: tuple[tuple[float, float], ...]
    closed: bool


def bisect_root(f: Callable, lo, hi, f_lo, f_hi):
    """Sign-change bisection run to floating-point exhaustion.

    Purely sign-driven: two fields that are positive multiples of each
    other walk the identical interval sequence and land on the same root.
    Arrays of brackets walk in lockstep, each as it would alone; `f` then
    maps an array shaped like `lo`, and entries of settled brackets are
    ignored.
    """
    lo, hi, f_lo, f_hi = (np.array(x, dtype=float) for x in (lo, hi, f_lo, f_hi))
    if np.any((f_lo != 0.0) & (f_hi != 0.0) & ((f_lo > 0.0) == (f_hi > 0.0))):
        raise ValueError("bisection bracket must straddle a sign change")
    root = np.where(f_lo == 0.0, lo, hi)
    active = (f_lo != 0.0) & (f_hi != 0.0)
    lo_positive = f_lo > 0.0
    while np.any(active):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        done = active & ((mid == lo) | (mid == hi) | (f_mid == 0.0))
        root[done] = mid[done]
        active &= ~done
        to_lo = active & ((f_mid > 0.0) == lo_positive)
        lo[to_lo] = mid[to_lo]
        hi[active & ~to_lo] = mid[active & ~to_lo]
    return float(root) if root.ndim == 0 else root


def trace_boundary(quantity: BoundaryQuantity, grid: GridSpec,
                   tol: float = DEFAULT_ROOT_TOL) -> list[ContourPolyline]:
    """Critical contours of the requested quantity on the grid.

    Every grid edge whose endpoint signs differ is bisected to a root with
    |field| < tol; roots are joined into segments cell by cell and stitched
    into polylines, each closed loop emitted once.  Output ordering is
    deterministic: open chains first, then loops, each starting from the
    smallest edge id (horizontal edges before vertical, then by u index,
    then by v index).  A root that misses the tolerance raises ValueError.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    quantity = BoundaryQuantity(quantity)
    field = boundary_field(quantity)
    us, vs = grid.u_coords(), grid.v_coords()
    values = np.concatenate([_field_values(quantity, b) for b in _blocks(grid)])
    values = values.reshape(grid.nv, grid.nu)
    positive = values >= 0.0

    # edge ids in the order (horizontal first, i, j): horizontal edge (i, j)
    # spans u_i..u_{i+1} at v_j, vertical edge (i, j) spans v_j..v_{j+1} at u_i
    crossed_h = positive[:, :-1] != positive[:, 1:]
    crossed_v = positive[:-1, :] != positive[1:, :]
    h_i, h_j = np.nonzero(crossed_h.T)
    v_i, v_j = np.nonzero(crossed_v.T)
    horizontal = np.arange(h_i.size + v_i.size) < h_i.size
    fixed = np.concatenate((vs[h_j], us[v_i]))
    along = bisect_root(
        lambda x: field(np.where(horizontal, x, fixed), np.where(horizontal, fixed, x)),
        np.concatenate((us[h_i], vs[v_j])), np.concatenate((us[h_i + 1], vs[v_j + 1])),
        np.concatenate((values[h_j, h_i], values[v_j, v_i])),
        np.concatenate((values[h_j, h_i + 1], values[v_j + 1, v_i])),
    )
    root_u = np.where(horizontal, along, fixed)
    root_v = np.where(horizontal, fixed, along)
    residual = np.abs(field(root_u, root_v))
    if not np.all(residual < tol):
        k = int(np.argmax(residual))
        raise ValueError(
            f"contour root at ({float(root_u[k])!r}, {float(root_v[k])!r}) has "
            f"residual {residual[k]:.3e}, not below the tolerance {tol:g}"
        )

    # crossed-edge id of each side (bottom, right, top, left) of the cells
    # that have a crossed side, or -1; the signs change an even number of
    # times around a cell, so it has two crossed sides or, at a saddle, four.
    # int32 halves the id grids; the point budget keeps edges below 2**31
    id_h = np.full(crossed_h.shape, -1, dtype=np.int32)
    id_h[h_j, h_i] = np.arange(h_i.size)
    id_v = np.full(crossed_v.shape, -1, dtype=np.int32)
    id_v[v_j, v_i] = h_i.size + np.arange(v_i.size)
    c_j, c_i = np.nonzero(crossed_h[:-1] | crossed_v[:, 1:] | crossed_h[1:] | crossed_v[:, :-1])
    sides = np.column_stack((id_h[c_j, c_i], id_v[c_j, c_i + 1],
                             id_h[c_j + 1, c_i], id_v[c_j, c_i]))
    # saddle cell: the sign at the centre picks the pairing
    saddle = np.all(sides >= 0, axis=1)
    s_j, s_i = c_j[saddle], c_i[saddle]
    bottom, right, top, left = sides[saddle].T
    centre = field((us[s_i] + us[s_i + 1]) / 2.0, (vs[s_j] + vs[s_j + 1]) / 2.0)
    with_right = (centre >= 0.0) == positive[s_j, s_i]
    segments = np.concatenate((
        np.sort(sides[~saddle])[:, 2:],
        np.column_stack((bottom, np.where(with_right, right, left))),
        np.column_stack((top, np.where(with_right, left, right))),
    ))

    neighbours: list[list[int]] = [[] for _ in range(along.size)]
    for a, b in segments.tolist():
        neighbours[a].append(b)
        neighbours[b].append(a)
    points = list(zip(root_u.tolist(), root_v.tolist()))
    visited = [False] * along.size
    polylines: list[ContourPolyline] = []
    ends = [e for e, near in enumerate(neighbours) if len(near) == 1]
    for start in ends + list(range(along.size)):
        if visited[start]:
            continue
        chain, current = [start], start
        visited[start] = True
        while options := [e for e in neighbours[current] if not visited[e]]:
            current = min(options)
            visited[current] = True
            chain.append(current)
        # a walk that does not start at an end goes round a loop
        polylines.append(ContourPolyline(quantity, tuple(points[e] for e in chain),
                                         closed=len(neighbours[start]) != 1))
    return polylines


def _fmt(x: float) -> str:
    # shortest decimal string that round-trips the double
    return repr(float(x))


def scan_rows(records: Iterable[ScanRecord], normalized_negativity: bool = False) -> Iterator[str]:
    """CSV lines for scan records; negativity optionally doubled so a
    maximally entangled state reads 1 instead of 1/2."""
    yield SCAN_HEADER
    for r in records:
        neg = 2.0 * r.negativity if normalized_negativity else r.negativity
        yield ",".join(
            (
                _fmt(r.u),
                _fmt(r.v),
                _fmt(r.chsh),
                _fmt(neg),
                _fmt(r.fidelity),
                _fmt(r.dominant_weight),
                r.dominant_label.name.lower(),
                r.region.value,
            )
        )


def boundary_rows(polylines: Iterable[ContourPolyline]) -> Iterator[str]:
    """CSV lines for traced contours, one row per point."""
    yield BOUNDARY_HEADER
    for contour_id, poly in enumerate(polylines):
        for u, v in poly.points:
            yield f"{contour_id},{_fmt(u)},{_fmt(v)}"


def dominant_rows(entries: Iterable[tuple[float, float, BellLabel, float]]) -> Iterator[str]:
    """CSV lines for the dominant-component map."""
    yield DOMINANT_HEADER
    for u, v, label, weight in entries:
        yield f"{_fmt(u)},{_fmt(v)},{label.name.lower()},{_fmt(weight)}"
