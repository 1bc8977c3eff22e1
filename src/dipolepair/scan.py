"""Phase-plane sweeps over the couplings (u, v) and critical-contour tracing.

Each grid point is classified into one of three regions:

    separable        negativity < 1e-12
    entangled_local  entangled but CHSH <= 2
    nonlocal         CHSH > 2 (+ 1e-12)

Three signed boundary fields share the same zero sets as the physically
interesting transitions: chsh - 2, max_a p_a - 1/2 (signed version of the
negativity onset) and best_fidelity - 2/3.  Contours are traced by
bisecting sign changes along grid edges and joining the roots cell by
cell (marching squares, saddle cells split by the sign at the centre).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator

import numpy as np

from . import core
from .core import NONLOCAL_CHSH_TOL, SEPARABLE_NEGATIVITY_TOL, Region
from .dipolar import COUPLING_LIMIT, CorrelationTriple, CouplingParams, spectrum
from .linalg import BellLabel
from .measures import chsh_from_correlations, negativity_bell_diagonal
from .teleport import best_fidelity

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
            if int(n) != n or int(n) < 2:
                raise ValueError(f"{name} must be an integer >= 2, got {n!r}")
            object.__setattr__(self, name, int(n))
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise ValueError("grid bounds must satisfy min < max on both axes")
        # coordinates grow with the index, so the end points are the extremes;
        # the last one can overshoot max by an ulp
        for name, lo, hi, n in (("u", self.u_min, self.u_max, self.nu),
                                ("v", self.v_min, self.v_max, self.nv)):
            for x in _axis(lo, hi, n, (0, n - 1)):
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
        return np.array(_axis(self.u_min, self.u_max, self.nu, range(self.nu)))

    def v_coords(self) -> np.ndarray:
        return np.array(_axis(self.v_min, self.v_max, self.nv, range(self.nv)))


def _axis(lo: float, hi: float, n: int, indices: Iterable[int]) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in indices]


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


def evaluate_point(params: CouplingParams) -> ScanRecord:
    """All reported quantities of the thermal state at one coupling point."""
    spectral = spectrum(params)
    chsh = chsh_from_correlations(CorrelationTriple.from_weights(spectral.weights))
    neg = negativity_bell_diagonal(spectral)
    report = best_fidelity(spectral)
    label, weight = spectral.dominant()
    if neg < SEPARABLE_NEGATIVITY_TOL:
        region = Region.SEPARABLE
    elif chsh.value > 2.0 + NONLOCAL_CHSH_TOL:
        region = Region.NONLOCAL
    else:
        region = Region.ENTANGLED_LOCAL
    return ScanRecord(
        u=params.u,
        v=params.v,
        chsh=chsh.value,
        negativity=neg,
        fidelity=report.best,
        dominant_weight=weight,
        dominant_label=label,
        region=region,
    )


def _blocks(grid: GridSpec) -> Iterator[core.PhaseArrays]:
    """The core evaluated on consecutive row-major runs of grid points."""
    us, vs = grid.u_coords(), grid.v_coords()
    total = grid.nu * grid.nv
    for start in range(0, total, BLOCK_POINTS):
        k = np.arange(start, min(start + BLOCK_POINTS, total))
        yield core.evaluate(us[k % grid.nu], vs[k // grid.nu])


def scan_records(grid: GridSpec) -> Iterator[ScanRecord]:
    """Every grid point, row-major (v outer, u inner), computed a block of
    points at a time so memory does not grow with the grid."""
    for b in _blocks(grid):
        labels = [core.LABELS[i] for i in b.dominant.tolist()]
        regions = [core.REGIONS[i] for i in b.region.tolist()]
        for row in zip(b.u.tolist(), b.v.tolist(), b.chsh.tolist(),
                       b.negativity.tolist(), b.fidelity.tolist(),
                       b.dominant_weight.tolist(), labels, regions):
            yield ScanRecord(*row)


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


def _field_chsh(u: float, v: float) -> float:
    spectral = spectrum(CouplingParams(u, v))
    return chsh_from_correlations(
        CorrelationTriple.from_weights(spectral.weights)
    ).value - 2.0


def _field_negativity(u: float, v: float) -> float:
    # signed distance through the entanglement onset: max weight - 1/2
    return float(np.max(spectrum(CouplingParams(u, v)).weights)) - 0.5


def _field_fidelity(u: float, v: float) -> float:
    return best_fidelity(spectrum(CouplingParams(u, v))).best - 2.0 / 3.0


_FIELDS: dict[BoundaryQuantity, Callable[[float, float], float]] = {
    BoundaryQuantity.CHSH_MINUS_2: _field_chsh,
    BoundaryQuantity.NEGATIVITY: _field_negativity,
    BoundaryQuantity.FIDELITY_MINUS_TWO_THIRDS: _field_fidelity,
}


def boundary_field(quantity: BoundaryQuantity) -> Callable[[float, float], float]:
    """Signed scalar field whose zero set is the requested boundary."""
    return _FIELDS[BoundaryQuantity(quantity)]


@dataclass(frozen=True)
class ContourPolyline:
    """Ordered chain of boundary roots; `closed` marks a loop whose last
    point connects back to the first."""

    quantity: BoundaryQuantity
    points: tuple[tuple[float, float], ...]
    closed: bool


def bisect_root(f: Callable[[float], float], lo: float, hi: float,
                f_lo: float, f_hi: float) -> float:
    """Sign-change bisection run to floating-point exhaustion.

    Purely sign-driven: two fields that are positive multiples of each
    other walk the identical interval sequence and land on the same root.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError("bisection bracket must straddle a sign change")
    lo_positive = f_lo > 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid


def _sign(x: float) -> int:
    return 1 if x >= 0.0 else -1


def trace_boundary(quantity: BoundaryQuantity, grid: GridSpec,
                   tol: float = DEFAULT_ROOT_TOL) -> list[ContourPolyline]:
    """Critical contours of the requested quantity on the grid.

    Every grid edge whose endpoint signs differ is bisected to a root with
    |field| < tol; roots are joined into segments cell by cell and stitched
    into polylines.  Output ordering is deterministic: open chains first,
    then loops, each starting from the smallest edge id.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    field = boundary_field(quantity)
    us = [float(x) for x in grid.u_coords()]
    vs = [float(x) for x in grid.v_coords()]
    values = [[field(u, v) for u in us] for v in vs]
    signs = [[_sign(x) for x in row] for row in values]

    # edge ids: ("h", i, j) spans u_i..u_{i+1} at v_j; ("v", i, j) spans
    # v_j..v_{j+1} at u_i
    roots: dict[tuple[str, int, int], tuple[float, float]] = {}
    for j, v in enumerate(vs):
        for i in range(grid.nu - 1):
            if signs[j][i] != signs[j][i + 1]:
                u_root = bisect_root(
                    lambda x, v=v: field(x, v),
                    us[i], us[i + 1], values[j][i], values[j][i + 1],
                )
                _check_residual(field, u_root, v, tol)
                roots[("h", i, j)] = (u_root, v)
    for j in range(grid.nv - 1):
        for i, u in enumerate(us):
            if signs[j][i] != signs[j + 1][i]:
                v_root = bisect_root(
                    lambda y, u=u: field(u, y),
                    vs[j], vs[j + 1], values[j][i], values[j + 1][i],
                )
                _check_residual(field, u, v_root, tol)
                roots[("v", i, j)] = (u, v_root)

    segments: list[tuple[tuple[str, int, int], tuple[str, int, int]]] = []
    for j in range(grid.nv - 1):
        for i in range(grid.nu - 1):
            bottom, right = ("h", i, j), ("v", i + 1, j)
            top, left = ("h", i, j + 1), ("v", i, j)
            crossed = [e for e in (bottom, right, top, left) if e in roots]
            if not crossed:
                continue
            if len(crossed) == 2:
                segments.append((crossed[0], crossed[1]))
            elif len(crossed) == 4:
                # saddle cell: resolve the pairing with the centre sign
                centre = field((us[i] + us[i + 1]) / 2.0, (vs[j] + vs[j + 1]) / 2.0)
                if _sign(centre) == signs[j][i]:
                    segments.append((bottom, right))
                    segments.append((top, left))
                else:
                    segments.append((bottom, left))
                    segments.append((top, right))
            else:
                raise RuntimeError(
                    f"inconsistent sign pattern in cell ({i}, {j}): "
                    f"{len(crossed)} crossed edges"
                )

    adjacency: dict[tuple[str, int, int], list[tuple[str, int, int]]] = {
        e: [] for e in roots
    }
    for a, b in segments:
        adjacency[a].append(b)
        adjacency[b].append(a)

    visited: set[tuple[str, int, int]] = set()
    polylines: list[ContourPolyline] = []

    def walk(start: tuple[str, int, int]) -> list[tuple[str, int, int]]:
        chain = [start]
        visited.add(start)
        current = start
        while True:
            options = [e for e in adjacency[current] if e not in visited]
            if not options:
                return chain
            current = min(options)
            visited.add(current)
            chain.append(current)

    for start in sorted(e for e in roots if len(adjacency[e]) == 1):
        if start not in visited:
            chain = walk(start)
            polylines.append(
                ContourPolyline(quantity, tuple(roots[e] for e in chain), closed=False)
            )
    for start in sorted(e for e in roots if e not in visited):
        chain = walk(start)
        polylines.append(
            ContourPolyline(quantity, tuple(roots[e] for e in chain), closed=True)
        )
    return polylines


def _check_residual(field: Callable[[float, float], float], u: float, v: float,
                    tol: float) -> None:
    residual = abs(field(u, v))
    if not residual < tol:
        raise RuntimeError(
            f"contour root at ({u}, {v}) has residual {residual:.3e}, tolerance {tol:.0e}"
        )


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
