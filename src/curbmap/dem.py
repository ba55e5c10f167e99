"""Digital elevation map: per-cell ground height in two refinement stages.

Ground candidates are selected from the voting output (stick-salient
points whose normals are near vertical), binned into a fine height grid
whose cell statistic is the lower median z (robust against canopy
returns that share the ground's normal direction and, unlike the
midpoint median, never invents a height between the ground and an
elevated mode). The fine grid is then aggregated
to a coarse grid for a rough estimate and to a refined grid for the
final one; refined cells that disagree with their coarse cell by more
than the consistency threshold are invalidated and, where enough valid
neighbors exist, filled back in by neighbor interpolation.

The refined grid answers all later ground-height queries. Coarse-cell
medians are only robust while polluted cells are a minority of each
coarse cell, which holds for canopy-like outliers.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, _float_text
from .errors import CurbmapError, EmptyInputError

NODATA = -9999.0
# Largest 2D grid a DEM or label grid may allocate, in cells.
MAX_GRID_CELLS = 1 << 25
# Heights dem_chunks formats at once, in whole rows (at least one).
_ASCII_CHUNK_VALUES = 1 << 16


@dataclass(frozen=True)
class GroundParams:
    """Ground extraction and DEM construction knobs.

    stick_threshold is a fraction of the per-cloud maximum stick
    saliency; max_angle_deg bounds the angle between the (sign-folded)
    normal and vertical. Grid sizes are in meters; consistency is the
    maximum tolerated deviation of a refined cell from its coarse cell.
    """

    stick_threshold: float = 0.5
    max_angle_deg: float = 15.0
    height_cell: float = 0.5
    refined_cell: float = 1.0
    coarse_cell: float = 10.0
    consistency: float = 0.3
    min_samples: int = 3

    def __post_init__(self):
        for name in ("stick_threshold", "max_angle_deg", "consistency", "min_samples"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("height_cell", "refined_cell", "coarse_cell"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not self.max_angle_deg < 90.0:
            raise ValueError("max_angle_deg must be below 90")


@dataclass
class DemGrid:
    """2D height field: per-cell height estimate and validity, 9 bytes a cell.

    heights[row, col] covers x in [x0 + col*cell, x0 + (col+1)*cell) and
    y likewise with rows. Invalid cells hold NODATA.
    """

    origin: tuple[float, float]
    cell: float
    heights: np.ndarray
    valid: np.ndarray

    @property
    def shape(self):
        return self.heights.shape


def extract_ground_candidates(cloud: PointCloud, params: GroundParams) -> np.ndarray:
    """Indices of stick-salient points with near-vertical normals."""
    stick = cloud.channel("stick")
    nz = cloud.channel("nz")
    for required in ("nx", "ny"):
        cloud.channel(required)
    if len(stick) == 0:
        return np.zeros(0, dtype=np.int64)
    # folding the normal so nz >= 0 makes the angle test |nz| >= cos(theta)
    min_nz = np.cos(np.radians(params.max_angle_deg))
    keep = stick >= params.stick_threshold * stick.max()
    keep &= (nz >= min_nz) | (nz <= -min_nz)   # |nz| >= min_nz without an |nz| array
    return np.flatnonzero(keep)


def _cells_along(xy: np.ndarray, origin, cell: float, axis: int) -> np.ndarray:
    """floor((xy[:, axis] - origin[axis]) / cell) as float64, in one buffer."""
    q = np.subtract(xy[:, axis], origin[axis])
    q /= cell
    return np.floor(q, out=q)


def snapped_origin(xy: np.ndarray, cell: float) -> tuple[float, float]:
    """The min corner of xy snapped down to a multiple of `cell`."""
    return (float(np.floor(xy[:, 0].min() / cell) * cell),
            float(np.floor(xy[:, 1].min() / cell) * cell))


def grid_shape(xy: np.ndarray, origin, cell: float) -> tuple[int, int]:
    """(nrows, ncols) of the grid of `cell` cells from `origin` holding every xy.

    Raises CurbmapError, naming the xy extent and the cell size, when
    the grid would exceed MAX_GRID_CELLS. The check runs on the float
    spans, before any grid array exists.
    """
    top = xy.max(axis=0)
    spans = np.floor((top - np.asarray(origin)) / cell) + 1
    if not spans[0] * spans[1] <= MAX_GRID_CELLS:
        extent = top - xy.min(axis=0)
        raise CurbmapError(f"xy extent {extent[0]:g} x {extent[1]:g} m at cell size {cell:g} m "
                           f"needs {spans[1]:.0f} x {spans[0]:.0f} grid cells, "
                           f"more than {MAX_GRID_CELLS}")
    return int(spans[1]), int(spans[0])


def occupied_cells(xy: np.ndarray, origin, cell: float):
    """((nrows, ncols), cells, slot): the grid shape (see grid_shape), the
    sorted row-major keys row * ncols + col of the cells holding an xy,
    and each xy's index into cells.

    The keys are summed in the float row buffer and cast once: they are
    whole numbers of magnitude below 2 * MAX_GRID_CELLS, so float64 holds
    them exactly. cells is the sorted keys without repeats (np.unique on
    int64 keys alone takes a hash path about 15x slower than np.sort),
    and slot is looked up in it by searchsorted, which needs none of the
    sort permutation and inverse arrays that
    np.unique(..., return_inverse=True) makes.
    """
    nrows, ncols = grid_shape(xy, origin, cell)
    keys = _cells_along(xy, origin, cell, 1)
    keys *= ncols
    keys += _cells_along(xy, origin, cell, 0)
    keys = keys.astype(np.int64)
    cells = np.sort(keys)
    cells = cells[np.concatenate(([True], cells[1:] != cells[:-1]))]
    return (nrows, ncols), cells, np.searchsorted(cells, keys)


def _median_grid(xy, values, origin, cell: float, min_count: int):
    """Per-cell lower median of values; returns (heights, valid).

    The lower median is the ceil(n/2)-th order statistic: the ordinary
    median of an odd number of values, the lower of the two middle ones
    of an even number. Height pollution (canopy, vehicle roofs) is
    one-sided above the ground, and a midpoint between the ground mode
    and an elevated mode would be a fictitious height no sample supports.

    A cell is valid when it holds at least min_count values; every
    other cell holds NODATA. Raises CurbmapError when the grid is too
    large (see grid_shape).
    """
    shape, cells, slot = occupied_cells(xy, origin, cell)
    # lexsort copies both keys when one is strided, so hand it a
    # contiguous copy of values: one temporary instead of two
    order = np.lexsort((np.ascontiguousarray(values), slot))
    sizes = np.bincount(slot)
    del slot
    middle = np.cumsum(sizes) - sizes + (sizes - 1) // 2   # each lower median's place in order
    enough = sizes >= min_count
    cells, middle = cells[enough], middle[enough]
    heights = np.full(shape, NODATA)
    valid = np.zeros(shape, dtype=bool)
    heights.flat[cells] = values[order[middle]]
    valid.flat[cells] = True
    return heights, valid


def build_height_grid(points: np.ndarray, cell: float, min_samples: int = 3) -> DemGrid:
    """Height grid over candidate ground points, lower median z per cell.

    Cells with fewer than min_samples points are invalid and hold
    NODATA. The origin is the candidates' min corner snapped to the cell
    size, so identical clouds always produce identical grids.
    """
    points = np.asarray(points, dtype=np.float64)
    if len(points) == 0:
        raise EmptyInputError("no ground candidate points")
    origin = snapped_origin(points, cell)
    heights, valid = _median_grid(points[:, :2], points[:, 2], origin, cell, min_samples)
    return DemGrid(origin, float(cell), heights, valid)


# 3x3 interpolation kernel: edge neighbors weigh twice the diagonals.
_NEIGHBOR_OFFSETS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
_NEIGHBOR_WEIGHTS = [1.0, 2.0, 1.0, 2.0, 2.0, 1.0, 2.0, 1.0]


def refine_dem(height_grid: DemGrid, coarse_cell: float = 10.0,
               refined_cell: float = 1.0, consistency: float = 0.3) -> DemGrid:
    """Two-stage DEM: coarse medians gate the refined cells.

    Valid fine cells are aggregated (by cell-center coordinates, shared
    origin) into a refined grid and a coarse grid, both via medians.
    Refined cells deviating from their coarse cell by more than the
    consistency threshold are invalidated, then filled by weighted
    interpolation of their valid 8-neighbors when at least two exist.
    A filled value is kept only if it passes the same consistency check,
    so every valid output cell agrees with its coarse estimate.
    """
    rows, cols = np.nonzero(height_grid.valid)
    if len(rows) == 0:
        raise EmptyInputError("height grid has no valid cells")
    x0, y0 = height_grid.origin
    centers = np.column_stack([
        x0 + (cols + 0.5) * height_grid.cell,
        y0 + (rows + 0.5) * height_grid.cell,
    ])
    values = height_grid.heights[rows, cols]

    ref_h, ref_valid = _median_grid(centers, values, (x0, y0), refined_cell, 1)
    coarse_h, coarse_valid = _median_grid(centers, values, (x0, y0), coarse_cell, 1)

    # coarse height per refined cell, via the refined cell's center
    ccol = np.floor((x0 + (np.arange(ref_h.shape[1]) + 0.5) * refined_cell - x0)
                    / coarse_cell).astype(np.int64)
    crow = np.floor((y0 + (np.arange(ref_h.shape[0]) + 0.5) * refined_cell - y0)
                    / coarse_cell).astype(np.int64)
    at_coarse = np.ix_(np.clip(crow, 0, coarse_h.shape[0] - 1),
                       np.clip(ccol, 0, coarse_h.shape[1] - 1))
    coarse_of = coarse_h[at_coarse]
    coarse_ok = coarse_valid[at_coarse]

    consistent = ref_valid & coarse_ok & (np.abs(ref_h - coarse_of) <= consistency)
    out_h = np.where(consistent, ref_h, NODATA)
    out_valid = consistent.copy()

    # refill the invalidated cells from their consistent neighbors, summed
    # in _NEIGHBOR_OFFSETS order; the padding border is never consistent
    fill_r, fill_c = np.nonzero(ref_valid & ~consistent)
    ok_p, h_p = np.pad(consistent, 1), np.pad(ref_h, 1)
    acc = wsum = 0.0
    nn = 0
    for (dr, dc), w in zip(_NEIGHBOR_OFFSETS, _NEIGHBOR_WEIGHTS):
        at = (fill_r + 1 + dr, fill_c + 1 + dc)
        ok = ok_p[at]
        acc = acc + np.where(ok, w * h_p[at], 0.0)
        wsum = wsum + np.where(ok, w, 0.0)
        nn = nn + ok
    with np.errstate(invalid="ignore"):
        filled = acc / wsum   # NaN where no neighbor is consistent
    keep = ((nn >= 2) & coarse_ok[fill_r, fill_c]
            & (np.abs(filled - coarse_of[fill_r, fill_c]) <= consistency))
    fill_r, fill_c = fill_r[keep], fill_c[keep]
    out_h[fill_r, fill_c] = filled[keep]
    out_valid[fill_r, fill_c] = True
    return DemGrid((x0, y0), float(refined_cell), out_h, out_valid)


def ground_model(cloud: PointCloud, params: GroundParams) -> tuple[np.ndarray, DemGrid]:
    """The DEM stage: ground candidates, their height grid, the refined DEM.

    Returns (ground_idx, refined). Raises EmptyInputError when no point
    qualifies as ground or no height cell holds min_samples of them.
    """
    ground_idx = extract_ground_candidates(cloud, params)
    height_grid = build_height_grid(cloud.points[ground_idx], params.height_cell,
                                    min_samples=params.min_samples)
    return ground_idx, refine_dem(height_grid, params.coarse_cell,
                                  params.refined_cell, params.consistency)


def ground_heights(dem: DemGrid, xy: np.ndarray):
    """Vectorized ground lookup. Returns (heights, known) arrays.

    Float rows and columns are folded into one flat index before the
    cast, exactly as in occupied_cells; a query outside the grid reads
    cell 0 and is then marked unknown.
    """
    xy = np.atleast_2d(np.asarray(xy, dtype=np.float64))
    nrows, ncols = dem.shape
    row = _cells_along(xy, dem.origin, dem.cell, 1)
    col = _cells_along(xy, dem.origin, dem.cell, 0)
    known = (row >= 0) & (row < nrows) & (col >= 0) & (col < ncols)
    outside = ~known
    row[outside] = 0.0
    col[outside] = 0.0
    row *= ncols
    row += col
    del col
    flat = row.astype(np.int64)
    del row
    known &= dem.valid.take(flat)
    heights = dem.heights.take(flat)
    heights[~known] = NODATA
    return heights, known


def dem_chunks(dem: DemGrid) -> Iterator[bytes]:
    """ESRI-style ASCII grid text in chunks: the header, then whole rows
    from the top (max y) down, about _ASCII_CHUNK_VALUES heights each."""
    nrows, ncols = dem.shape
    yield "\n".join([
        f"ncols {ncols}",
        f"nrows {nrows}",
        f"xllcorner {float(dem.origin[0])!r}",
        f"yllcorner {float(dem.origin[1])!r}",
        f"cellsize {float(dem.cell)!r}",
        f"NODATA_value {NODATA!r}",
        "",
    ]).encode()
    rows = max(1, _ASCII_CHUNK_VALUES // ncols)
    top_down = dem.heights[::-1].astype(np.float64, copy=False)
    for a in range(0, nrows, rows):
        yield _float_text(top_down[a:a + rows].ravel(), ncols)


def to_ascii_grid(dem: DemGrid) -> bytes:
    """The chunks of dem_chunks, joined."""
    return b"".join(dem_chunks(dem))
