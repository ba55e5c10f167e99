"""Semantic occupancy grid: per-cell labels, raster and compact export.

Each 2D cell gets exactly one label. Because the underlying features
overlap (a cell can hold curb points and high wall points at once), the
classifier applies its rules in a fixed priority order, chosen so that
the safety-critical labels win:

    Unknown (too few points) > RoadCurb > Wall/Vehicle > Obstacle > Road

Labels carry a display color and a traversability verdict. Two export
forms exist: a binary P6 pixmap (one pixel per cell) and the SGRD
compact byte format (36-byte header plus one label byte per cell).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .cloud import PointCloud
from .dem import DemGrid, ground_heights, occupied_cells, snapped_origin
from .errors import FormatError, FrameMismatchError


class SemanticLabel(IntEnum):
    ROAD_CURB = 0
    OBSTACLE = 1
    WALL_VEHICLE = 2
    ROAD = 3
    UNKNOWN = 4


LABEL_COLORS: dict[SemanticLabel, tuple[int, int, int]] = {
    SemanticLabel.ROAD_CURB: (0, 128, 0),       # green
    SemanticLabel.OBSTACLE: (0, 0, 0),          # black
    SemanticLabel.WALL_VEHICLE: (255, 0, 0),    # red
    SemanticLabel.ROAD: (128, 128, 128),        # gray
    SemanticLabel.UNKNOWN: (0, 64, 0),          # dark green
}

TRAVERSABILITY: dict[SemanticLabel, str] = {
    SemanticLabel.ROAD_CURB: "certain conditions",
    SemanticLabel.OBSTACLE: "no",
    SemanticLabel.WALL_VEHICLE: "no",
    SemanticLabel.ROAD: "yes",
    SemanticLabel.UNKNOWN: "yes",
}


@dataclass(frozen=True)
class ClassifyParams:
    """Cell classification knobs.

    min_points: below this a cell stays Unknown. robot_height: the
    vehicle clearance separating Obstacle from Wall/Vehicle evidence.
    wall_point_threshold: how many points above robot height mark a
    wall. road_tolerance: maximum height above the DEM for a road cell.
    """

    cell: float = 0.12
    min_points: int = 3
    robot_height: float = 1.0
    wall_point_threshold: int = 10
    road_tolerance: float = 0.1

    def __post_init__(self):
        if not 0 < self.cell < math.inf:
            raise ValueError("cell must be positive and finite")
        for name in ("min_points", "robot_height", "wall_point_threshold", "road_tolerance"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class SemanticGrid:
    """Label field over a 2D grid, one label per cell."""

    origin: tuple[float, float]
    cell: float
    labels: np.ndarray       # (rows, cols) uint8 of SemanticLabel values

    @property
    def shape(self):
        return self.labels.shape


_HEADER = struct.Struct("<4sddd II")
_MAGIC = b"SGRD"  # format version 1 is implied by this magic


def classify_cells(cloud: PointCloud, dem: DemGrid, curb_indices: np.ndarray,
                   ground_indices: np.ndarray, params: ClassifyParams) -> SemanticGrid:
    """Project points into cells and label each cell.

    curb_indices are the detected curb points; ground_indices the ground
    candidates (road-surface evidence). Cells whose points all sit over
    unknown DEM cells can only become Unknown or RoadCurb.
    """
    pts = cloud.points
    if len(pts) == 0:
        raise FrameMismatchError("cannot classify an empty cloud")
    dem_x1 = dem.origin[0] + dem.shape[1] * dem.cell
    dem_y1 = dem.origin[1] + dem.shape[0] * dem.cell
    if (pts[:, 0].max() < dem.origin[0] or pts[:, 0].min() > dem_x1
            or pts[:, 1].max() < dem.origin[1] or pts[:, 1].min() > dem_y1):
        raise FrameMismatchError("cloud extent is disjoint from the DEM extent")
    above, known = ground_heights(dem, pts[:, :2])
    np.subtract(pts[:, 2], above, out=above)
    above[~known] = -np.inf   # a point over unknown ground, which no height rule counts
    del known
    return label_cells(pts[:, :2], above, np.asarray(curb_indices, dtype=np.int64),
                       np.asarray(ground_indices, dtype=np.int64), params)


def label_cells(xy: np.ndarray, above: np.ndarray, curb, ground,
                params: ClassifyParams) -> SemanticGrid:
    """Bin points into cells and label each cell by the priority rules.

    xy (n, 2) places the points on a grid whose origin is their min
    corner snapped to the cell size. above is each point's height over
    the ground, -inf where the ground is unknown. curb and ground select
    points, as indices or a boolean mask: curb evidence and road-surface
    evidence. The rules run over the occupied cells only; the label
    raster, one byte per cell, is the one array the size of the grid.
    Each per-cell count is reduced to the boolean its rule reads as soon
    as it is made, and the ground count is made before the point count,
    so no more than two counts and one gather of slots are alive at once.
    Raises CurbmapError when the grid is too large (see dem.grid_shape).
    """
    origin = snapped_origin(xy, params.cell)
    shape, cells, slot = occupied_cells(xy, origin, params.cell)
    ncells = len(cells)

    ground_count = np.bincount(slot[ground], minlength=ncells)
    ground_count *= 2
    counts = np.bincount(slot)
    enough = counts >= params.min_points
    majority = ground_count > counts   # road evidence: ground candidates outnumber the rest
    del counts, ground_count
    curb_cells = np.zeros(ncells, dtype=bool)
    curb_cells[slot[curb]] = True

    wall = np.bincount(slot[above > params.robot_height], minlength=ncells)
    wall = enough & (wall > params.wall_point_threshold)
    max_above = np.full(ncells, -np.inf)
    np.maximum.at(max_above, slot, above)
    del slot
    has_height = max_above > -np.inf   # the cell holds a point over known ground

    labels = np.full(ncells, int(SemanticLabel.UNKNOWN), dtype=np.uint8)
    obstacle = (enough & has_height
                & (max_above > params.road_tolerance) & (max_above <= params.robot_height))
    road = enough & has_height & majority & (max_above <= params.road_tolerance)
    labels[road] = int(SemanticLabel.ROAD)
    labels[obstacle] = int(SemanticLabel.OBSTACLE)
    labels[wall] = int(SemanticLabel.WALL_VEHICLE)
    labels[enough & curb_cells] = int(SemanticLabel.ROAD_CURB)

    # an unoccupied cell has fewer than min_points points: Unknown
    raster = np.full(shape, int(SemanticLabel.UNKNOWN), dtype=np.uint8)
    raster.flat[cells] = labels
    return SemanticGrid(origin, float(params.cell), raster)


def render_raster(grid: SemanticGrid) -> bytes:
    """Binary P6 pixmap, one pixel per cell, row 0 of the grid first."""
    nrows, ncols = grid.shape
    palette = np.zeros((5, 3), dtype=np.uint8)
    for label, rgb in LABEL_COLORS.items():
        palette[int(label)] = rgb
    pixels = palette[grid.labels]
    return f"P6\n{ncols} {nrows}\n255\n".encode() + pixels.tobytes()


def write_compact(grid: SemanticGrid) -> bytes:
    """SGRD compact bytes: 36-byte header then one label byte per cell.

    Header layout, little-endian: magic "SGRD" (the format version is
    carried by the magic itself), origin x and y as float64, cell size
    as float64, then row and column counts as uint32. Total size is
    exactly rows * cols + 36 bytes.
    """
    nrows, ncols = grid.shape
    header = _HEADER.pack(_MAGIC, grid.origin[0], grid.origin[1], grid.cell,
                          nrows, ncols)
    return header + grid.labels.astype(np.uint8).tobytes()


def read_compact(data: bytes) -> SemanticGrid:
    """Inverse of write_compact."""
    if len(data) < _HEADER.size:
        raise FormatError(f"truncated header: {len(data)} bytes")
    magic, x0, y0, cell, nrows, ncols = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise FormatError(f"bad magic/version {magic!r}")
    expected = _HEADER.size + nrows * ncols
    if len(data) != expected:
        raise FormatError(f"expected {expected} bytes for {nrows}x{ncols}, got {len(data)}")
    labels = np.frombuffer(data, dtype=np.uint8, offset=_HEADER.size).reshape(nrows, ncols)
    if labels.size and labels.max() > max(SemanticLabel):
        raise FormatError(f"label byte {labels.max()} out of range")
    return SemanticGrid((x0, y0), cell, labels.copy())
