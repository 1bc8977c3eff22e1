"""Phase-plane sweeps over the couplings (u, v) and critical-contour tracing.

Each grid point is classified into one of three regions:

    separable        negativity < 1e-12
    entangled_local  entangled but CHSH <= 2
    nonlocal         CHSH > 2 (+ 1e-12)

Three signed boundary fields share the same zero sets as the physically
interesting transitions: chsh - 2, max_a p_a - 1/2 (signed version of the
negativity onset) and fidelity - 2/3, all read through `boundary_field`,
which computes its one column from the core's helpers and no other.
Grid points are addressed by index, `GridSpec.coords(i, j)` being the one
rule to coordinates, so no axis is built whole.  Scans, maps and contours
read the array core; a single point is `core.evaluate_point`'s.  Contours
bisect the sign changes along grid edges in lockstep, each edge bracketed
by the (u, v) of its two end points, and join the roots cell by cell
(marching squares, saddles split by the sign at the centre).  A crossed
edge is (i, j) along (di, dj), (1, 0) or (0, 1), a side of cells (i, j)
and (i - dj, j - di).  A chsh `boundary` run peaked at 44 MB RSS at
2001 x 2001 and 81 MB at 4001 x 4001 (2 CPUs, Python 3.11, numpy 2.4).
`shortest` is imported where rows are formatted, so a `boundary` run, whose
few roots go through repr, never loads it.
"""
from __future__ import annotations

import numbers
import reprlib
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator

import numpy as np

from . import core

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

    `coords(i, j)` follows min + index * ((max - min) / (count - 1)) on each
    axis: the first coordinate is exactly min, and the last can miss max by
    rounding.
    """

    u_min: float
    u_max: float
    v_min: float
    v_max: float
    nu: int
    nv: int

    def __post_init__(self):
        # bounds are checked before any coordinate is computed: the step
        # (max - min) / (count - 1) of bounds near the float range overflows
        for name in ("u_min", "u_max", "v_min", "v_max"):
            object.__setattr__(self, name, core.coupling(name, getattr(self, name)))
        for name in ("nu", "nv"):
            n = getattr(self, name)
            try:
                ok = not np.iscomplexobj(n) and int(n) == n and int(n) >= 2
            except (TypeError, ValueError, OverflowError):  # None, nan, inf
                ok = False
            if not ok:
                raise ValueError(f"{name} must be an integer >= 2, got {n!r}")
            object.__setattr__(self, name, int(n))
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise ValueError("grid bounds must satisfy min < max on both axes")
        # the budget comes before any coordinate, whose step cannot divide by a
        # count beyond the float range; reprlib shortens such a count's digits
        if self.nu * self.nv > GRID_POINT_LIMIT:
            raise GridTooLargeError(
                f"grid has {reprlib.repr(self.nu)} * {reprlib.repr(self.nv)} = "
                f"{reprlib.repr(self.nu * self.nv)} points, budget is {GRID_POINT_LIMIT}"
            )
        # coordinates grow with the index, so the end points are the extremes;
        # the first is the min bound, and the last can overshoot max by an ulp
        for name, end in zip(("u", "v"), self.coords(self.nu - 1, self.nv - 1)):
            core.coupling(name, end)

    def coords(self, i, j):
        """(u, v) at u index i and v index j, integers or integer arrays."""
        return (self.u_min + i * ((self.u_max - self.u_min) / (self.nu - 1)),
                self.v_min + j * ((self.v_max - self.v_min) / (self.nv - 1)))


def _blocks(grid: GridSpec) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(u, v) of each row-major run of BLOCK_POINTS grid points, from the
    runs' own indices: no axis is built whole."""
    total = grid.nu * grid.nv
    for start in range(0, total, BLOCK_POINTS):
        k = np.arange(start, min(start + BLOCK_POINTS, total))
        yield grid.coords(k % grid.nu, k // grid.nu)


def evaluate_grid(grid: GridSpec) -> Iterator[core.PhaseArrays]:
    """The core evaluated on consecutive row-major runs (v outer, u inner)
    of grid points, BLOCK_POINTS at a time, so memory does not grow with
    the grid or with either axis."""
    return (core.evaluate(u, v) for u, v in _blocks(grid))


def boundary_field(quantity: BoundaryQuantity) -> Callable:
    """Signed field whose zero set is the requested boundary, read from the
    array core; it takes u, v as floats (giving a float) or arrays."""
    # a column of the core less its threshold, computed from the weights by
    # the helpers `core.evaluate` uses, with no other column; max weight -
    # 1/2 is the signed distance through the entanglement onset
    column, threshold = {
        BoundaryQuantity.CHSH_MINUS_2: (lambda w: core._chsh(*w[:4]), 2.0),
        BoundaryQuantity.NEGATIVITY: (lambda w: w[4], 0.5),
        BoundaryQuantity.FIDELITY_MINUS_TWO_THIRDS: (lambda w: core._fidelity(w[4]), 2.0 / 3.0),
    }[BoundaryQuantity(quantity)]

    def field(u, v):
        values = column(core._weights(*core._points(u, v))) - threshold
        values = values.reshape(np.broadcast_shapes(np.shape(u), np.shape(v)))
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
    maps an array of the four arguments' broadcast shape to values that
    need only broadcast against it, and entries of settled brackets are
    ignored.  So (2, n) brackets of points take an f of the points' (n,)
    values, with (n,) end values.  Ends and end values must be finite
    floats, or it raises ValueError.
    """
    arrays = []
    for x in (lo, hi, f_lo, f_hi):
        try:
            arrays.append(core.floats("bracket", x))
        except ValueError:  # not a real number: not finite, so rejected below
            arrays.append(np.array(np.nan))
    # one bracket per entry of the four broadcast together, copied, since the
    # ends move in place
    lo, hi, f_lo, f_hi = (a.copy() for a in np.broadcast_arrays(*arrays))
    # a nan end never lets a bracket settle, and an infinite one is its own midpoint
    if not (np.isfinite(lo) & np.isfinite(hi)).all():
        raise ValueError("bisection bracket ends must be finite")
    # nan > 0.0 is False, so a nan end value would read as a negative one
    if not (np.isfinite(f_lo) & np.isfinite(f_hi)).all():
        raise ValueError("bisection bracket end values must be finite")
    if ((f_lo != 0.0) & (f_hi != 0.0) & ((f_lo > 0.0) == (f_hi > 0.0))).any():
        raise ValueError("bisection bracket must straddle a sign change")
    root = np.where(f_lo == 0.0, lo, hi)
    active = (f_lo != 0.0) & (f_hi != 0.0)
    lo_positive = f_lo > 0.0
    while active.any():
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
    # a real number, positive as given and as the float that the residuals
    # are held to, which a tiny Fraction or long double rounds to 0.0
    if not isinstance(tol, numbers.Real):
        raise ValueError(f"tolerance must be a real number, got {reprlib.repr(tol)}")
    try:
        ok = tol > 0.0 and float(tol) > 0.0
    except OverflowError:  # an integer beyond the float range
        raise ValueError("tolerance must be a float, got an integer too large for one") from None
    if not ok:
        raise ValueError(f"tolerance must be positive, got {reprlib.repr(tol)}")
    tol = float(tol)
    quantity = BoundaryQuantity(quantity)
    field = boundary_field(quantity)
    # the field's sign at each grid point, all that the crossings and their
    # bisection read of it: `bisect_root` tests its end values only against
    # 0.0, and -0.0 and 0.0 both give 0
    sign = np.concatenate([np.sign(field(u, v)).astype(np.int8)
                           for u, v in _blocks(grid)]).reshape(grid.nv, grid.nu)
    positive = sign >= 0

    # each crossed edge as (i, j) along (di, dj), (1, 0) or (0, 1): it joins
    # grid points (i, j) and (i + di, j + dj).  Edge ids run through the
    # horizontal edges, then the vertical ones, each by i, then by j
    h, v = (np.nonzero((positive[:grid.nv - dj, :grid.nu - di] != positive[dj:, di:]).T)
            for di, dj in ((1, 0), (0, 1)))
    i, j = np.concatenate((h[0], v[0])), np.concatenate((h[1], v[1]))
    di = np.repeat((1, 0), (h[0].size, v[0].size))
    dj = 1 - di
    # bisected as (u, v) pairs: the coordinate an edge holds has lo == hi, and
    # settles on it at the first step, as 0.5 * (x + x) == x
    root_u, root_v = bisect_root(lambda x: field(*x), np.stack(grid.coords(i, j)),
                                 np.stack(grid.coords(i + di, j + dj)),
                                 sign[j, i], sign[j + dj, i + di])
    residual = np.abs(field(root_u, root_v))
    if not np.all(residual < tol):
        k = int(np.argmax(residual))
        raise ValueError(
            f"contour root at ({float(root_u[k])!r}, {float(root_v[k])!r}) has "
            f"residual {residual[k]:.3e}, not below the tolerance {tol:g}"
        )

    # each crossed edge is a side (0 bottom, 1 right, 2 top, 3 left) of the one
    # or two cells beside it, cell c = j * n + i spanning grid points (i, j) to
    # (i + 1, j + 1): side 0 or 3 of cell (i, j) and side 2 or 1 of cell
    # (i - dj, j - di).  The signs change an even number of times around a
    # cell, so sorted by cell and side its records come in twos or, at a
    # saddle, in fours: bottom, right, top, left
    n = grid.nu - 1
    cells = np.concatenate((j * n + i, (j - di) * n + i - dj))
    sides = np.concatenate((3 * dj, 2 - dj))
    beside = np.concatenate(((i < n) & (j < grid.nv - 1), (i >= dj) & (j >= di)))
    key = (4 * cells + sides)[beside]
    order = np.argsort(key)
    pairs = np.tile(np.arange(i.size), 2)[beside][order].reshape(-1, 2)
    paired = key[order][::2] // 4  # the cell of each pair
    # a saddle's pairs as sorted join bottom to right and top to left; the
    # sign at the centre keeps them or swaps their second sides
    saddle = np.flatnonzero(paired[:-1] == paired[1:])
    s_j, s_i = np.divmod(paired[saddle], n)
    (u0, v0), (u1, v1) = grid.coords(s_i, s_j), grid.coords(s_i + 1, s_j + 1)
    centre = field((u0 + u1) / 2.0, (v0 + v1) / 2.0)
    swap = saddle[(centre >= 0.0) != positive[s_j, s_i]]
    pairs[swap, 1], pairs[swap + 1, 1] = pairs[swap + 1, 1], pairs[swap, 1]

    neighbours: list[list[int]] = [[] for _ in range(i.size)]
    for a, b in pairs.tolist():
        neighbours[a].append(b)
        neighbours[b].append(a)
    points = list(zip(root_u.tolist(), root_v.tolist()))
    visited = [False] * i.size
    polylines: list[ContourPolyline] = []
    ends = [e for e, near in enumerate(neighbours) if len(near) == 1]
    for start in ends + list(range(i.size)):
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


# Floats are written as repr writes them, the shortest decimal string that
# round-trips the double.  `shortest.reprs` formats whole columns into
# NUL-padded byte rows; the rows of a slice are joined as one byte matrix
# and the NULs dropped, so each slice becomes one text chunk.  At about 170
# bytes per row a slice's matrix and its copies stay near 1 MB; slices of
# 4096 rows cost a 201 x 201 `scan` 1.2 MB more peak RSS, and no less time.
SLICE_ROWS = 1 << 11


def _byte_table(texts: list[str]) -> np.ndarray:
    """One NUL-padded uint8 row per text."""
    table = np.array([t.encode("ascii") for t in texts])
    return table.view(np.uint8).reshape(len(texts), -1)


_COMMA = _byte_table([","])
_NEWLINE = _byte_table(["\n"])
_LABEL_NAMES = [label.name.lower() for label in core.LABELS]
# ",label," by dominant
_LABELS = _byte_table([f",{name}," for name in _LABEL_NAMES])
# ",label,region\n" by dominant * len(REGIONS) + region
_SUFFIXES = _byte_table([f",{name},{region.value}\n" for name in _LABEL_NAMES
                         for region in core.REGIONS])


def _slice_reprs(b: core.PhaseArrays, columns: list[np.ndarray]
                 ) -> Iterator[tuple[slice, list[np.ndarray]]]:
    """For each slice of up to SLICE_ROWS rows of a block, the slice and
    the `shortest.reprs` of its u, v and columns.  u and v repeat each axis
    coordinate, so each distinct double of theirs is formatted once per
    block, in one call before the slices, its text trimmed to the padding
    it needs; doubles are told apart by their bits, so 0.0 and -0.0 keep
    their own text.  Each slice's columns are formatted in one call."""
    # here, not at load: a `boundary` run formats no float with it
    from . import shortest

    (u, at_u), (v, at_v) = (np.unique(c.view(np.int64), return_inverse=True)
                            for c in (b.u, b.v))
    coordinates = shortest.reprs(np.concatenate((u, v)).view(np.float64))
    coordinates = coordinates[:, int(coordinates.any(axis=0).argmax()):]
    at_v += u.size
    for at in range(0, b.u.size, SLICE_ROWS):
        s = slice(at, at + SLICE_ROWS)
        texts = shortest.reprs(np.concatenate([c[s] for c in columns]))
        yield s, [coordinates[at_u[s]], coordinates[at_v[s]]] + np.split(texts, len(columns))


def _chunk(fields: list[np.ndarray]) -> str:
    """The rows made of byte fields side by side, as one text; a field
    with one row is repeated on every row."""
    n = max(map(len, fields))
    rows = np.concatenate([np.broadcast_to(f, (n, f.shape[1])) for f in fields], axis=1)
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def scan_rows(blocks: Iterable[core.PhaseArrays],
              normalized_negativity: bool = False) -> Iterator[str]:
    """CSV text for evaluated core blocks, one row per point in block order:
    the header line, then one chunk of newline-terminated rows per slice of
    up to SLICE_ROWS points.  Negativity is optionally doubled so a
    maximally entangled state reads 1 instead of 1/2."""
    yield SCAN_HEADER + "\n"
    for b in blocks:
        neg = 2.0 * b.negativity if normalized_negativity else b.negativity
        for s, (u, v, chsh, negativity, fidelity, weight) in _slice_reprs(
                b, [b.chsh, neg, b.fidelity, b.dominant_weight]):
            yield _chunk([u, _COMMA, v, _COMMA, chsh, _COMMA, negativity, _COMMA, fidelity,
                          _COMMA, weight,
                          _SUFFIXES[b.dominant[s] * len(core.REGIONS) + b.region[s]]])


def boundary_rows(polylines: Iterable[ContourPolyline]) -> Iterator[str]:
    """CSV lines for traced contours, one newline-terminated row per point.
    Floats go through repr: a trace has far fewer roots than its grid has
    points, too few to pay for loading `shortest`, which builds its tables."""
    yield BOUNDARY_HEADER + "\n"
    for contour_id, poly in enumerate(polylines):
        for u, v in poly.points:
            yield f"{contour_id},{u!r},{v!r}\n"


def dominant_rows(blocks: Iterable[core.PhaseArrays]) -> Iterator[str]:
    """CSV text of the dominant-component map for evaluated core blocks,
    one row per point in block order: the header line, then one chunk of
    newline-terminated rows per slice of up to SLICE_ROWS points."""
    yield DOMINANT_HEADER + "\n"
    for b in blocks:
        for s, (u, v, weight) in _slice_reprs(b, [b.dominant_weight]):
            yield _chunk([u, _COMMA, v, _LABELS[b.dominant[s]], weight, _NEWLINE])
