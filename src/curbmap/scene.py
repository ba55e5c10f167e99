"""Synthetic street scenes with per-point ground-truth labels.

The generator builds the canonical test world: a road flanked by two
raised sidewalks, vertical curb faces joining them, optional wall planes
and canopy blobs. Surfaces are sampled on a jittered grid (stratified:
one point per grid cell, uniform within it), which matches the quasi-
uniform coverage of real scans far better than i.i.d. sampling and keeps
neighborhood statistics stable. Gaussian sensor noise is added on top.

Walls are emitted from `wall_base` up: the lowest stretch of a facade is
routinely occluded from a vehicle-mounted scanner by curbside clutter,
so no returns appear at the wall-ground junction.

Every point carries a truth class in the "truth" channel; the module
also knows the true ground height everywhere, which test oracles use to
rasterize reference semantic grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .semantic import ClassifyParams, SemanticGrid, label_cells

TRUTH_ROAD = 0.0
TRUTH_SIDEWALK = 1.0
TRUTH_CURB = 2.0
TRUTH_WALL = 3.0
TRUTH_CANOPY = 4.0


@dataclass(frozen=True)
class SceneSpec:
    """Geometry and sampling parameters of a synthetic street.

    The scene spans [-extent/2, extent/2] in x and y. Curb faces sit at
    x = +-road_width/2 and rise curb_height above the road; sidewalks
    continue outward at curb height. grade tilts the whole ground along
    x. canopy_blobs are (center_x, center_y, radius) discs of foliage
    floating at canopy_height above the local ground. Walls start at
    wall_base above ground: a facade's lowest stretch is occluded from a
    vehicle-mounted scanner by curbside clutter. Sampling density fades
    to zero over the outer edge_taper meters, like real coverage does.
    """

    extent: float = 20.0
    road_width: float = 6.0
    curb_height: float = 0.15
    grade: float = 0.0
    wall_x: tuple[float, ...] = (9.0,)
    wall_base: float = 0.9
    wall_top: float = 2.0
    canopy_blobs: tuple[tuple[float, float, float], ...] = ((-6.5, -4.0, 2.0), (6.0, 5.0, 2.2))
    canopy_height: float = 1.5
    canopy_thickness: float = 0.3
    density: float = 300.0
    noise: float = 0.004
    jitter: float = 0.1
    edge_taper: float = 1.5
    seed: int = 0

    def __post_init__(self):
        for name in ("extent", "road_width", "curb_height", "density"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.road_width >= self.extent:
            raise ValueError("road_width must be smaller than extent")
        if self.noise < 0:
            raise ValueError("noise must be non-negative")
        if not 0 <= self.jitter <= 0.5:
            raise ValueError("jitter must lie in [0, 0.5]")
        if self.edge_taper < 0:
            raise ValueError("edge_taper must be non-negative")
        if not self.wall_top > self.wall_base:
            raise ValueError("wall_top must exceed wall_base")
        for wall_x in self.wall_x:
            if abs(wall_x) >= self.extent / 2.0:
                raise ValueError(f"wall at x={wall_x} lies outside the scene")
            if abs(wall_x) <= self.road_width / 2.0:
                raise ValueError(f"wall at x={wall_x} stands on the road")
        for blob in self.canopy_blobs:
            if len(blob) != 3 or blob[2] <= 0:
                raise ValueError(f"canopy blob must be (x, y, radius>0), got {blob}")


def _sample_grid(rng: np.random.Generator, u0, u1, v0, v1, density,
                 jitter: float) -> np.ndarray:
    """Scan-like surface sampling: one point per grid cell of area about
    1/density, displaced by at most `jitter` cell widths. Small jitter
    mimics the quasi-regular spacing of registered LiDAR returns. The
    grid is thinned to exactly round(area * density) points, so narrow
    strips honor the requested density too."""
    target = max(1, int(round((u1 - u0) * (v1 - v0) * density)))
    spacing = 1.0 / np.sqrt(density)
    nu = max(1, int(round((u1 - u0) / spacing)))
    nv = max(1, int(np.ceil(target / nu)))
    iu, iv = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    n = nu * nv
    u = u0 + (iu.ravel() + 0.5 + rng.uniform(-jitter, jitter, n)) * (u1 - u0) / nu
    v = v0 + (iv.ravel() + 0.5 + rng.uniform(-jitter, jitter, n)) * (v1 - v0) / nv
    points = np.column_stack([u, v])
    if n > target:
        keep = rng.choice(n, size=target, replace=False)
        keep.sort()
        points = points[keep]
    return points


def true_ground_height(spec: SceneSpec, xy: np.ndarray) -> np.ndarray:
    """Ground elevation under each (x, y): road or raised sidewalk, graded."""
    xy = np.atleast_2d(np.asarray(xy, dtype=np.float64))
    base = spec.grade * xy[:, 0]
    on_sidewalk = np.abs(xy[:, 0]) > spec.road_width / 2.0
    return base + np.where(on_sidewalk, spec.curb_height, 0.0)


def curb_face_distance(spec: SceneSpec, points: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest curb face rectangle."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    half = spec.road_width / 2.0
    best = np.full(len(points), np.inf)
    for face_x in (-half, half):
        dx = points[:, 0] - face_x
        z0 = spec.grade * face_x
        dz = np.maximum.reduce([z0 - points[:, 2], points[:, 2] - (z0 + spec.curb_height),
                                np.zeros(len(points))])
        dy = np.maximum(np.abs(points[:, 1]) - spec.extent / 2.0, 0.0)
        best = np.minimum(best, np.sqrt(dx * dx + dy * dy + dz * dz))
    return best


def generate_scene(spec: SceneSpec) -> PointCloud:
    """Sample the scene. Returns a cloud with a "truth" class channel."""
    rng = np.random.default_rng(spec.seed)
    half_ext = spec.extent / 2.0
    half_road = spec.road_width / 2.0
    parts: list[np.ndarray] = []
    labels: list[np.ndarray] = []

    def add(points: np.ndarray, label: float):
        parts.append(points)
        labels.append(np.full(len(points), label))

    road_xy = _sample_grid(rng, -half_road, half_road, -half_ext, half_ext,
                           spec.density, spec.jitter)
    add(np.column_stack([road_xy, spec.grade * road_xy[:, 0]]), TRUTH_ROAD)

    for x0, x1 in ((-half_ext, -half_road), (half_road, half_ext)):
        side_xy = _sample_grid(rng, x0, x1, -half_ext, half_ext, spec.density, spec.jitter)
        add(np.column_stack([side_xy, spec.curb_height + spec.grade * side_xy[:, 0]]),
            TRUTH_SIDEWALK)

    for face_x in (-half_road, half_road):
        yz = _sample_grid(rng, -half_ext, half_ext, 0.0, spec.curb_height,
                          spec.density, spec.jitter)
        z = yz[:, 1] + spec.grade * face_x
        add(np.column_stack([np.full(len(yz), face_x), yz[:, 0], z]), TRUTH_CURB)

    for wall_x in spec.wall_x:
        yz = _sample_grid(rng, -half_ext, half_ext, spec.wall_base, spec.wall_top,
                          spec.density, spec.jitter)
        add(np.column_stack([np.full(len(yz), wall_x), yz[:, 0],
                             yz[:, 1] + spec.grade * wall_x]), TRUTH_WALL)

    for cx, cy, radius in spec.canopy_blobs:
        disc = _sample_grid(rng, cx - radius, cx + radius, cy - radius, cy + radius,
                            spec.density, spec.jitter)
        disc = disc[(disc[:, 0] - cx) ** 2 + (disc[:, 1] - cy) ** 2 <= radius * radius]
        z = (true_ground_height(spec, disc) + spec.canopy_height
             + rng.uniform(0.0, spec.canopy_thickness, len(disc)))
        add(np.column_stack([disc, z]), TRUTH_CANOPY)

    points = np.concatenate(parts)
    truth = np.concatenate(labels)
    if spec.edge_taper > 0:
        # registered scans thin out toward the coverage boundary; a hard
        # density edge would read as a spurious line feature
        rim = half_ext - np.maximum(np.abs(points[:, 0]), np.abs(points[:, 1]))
        keep_p = np.sin(np.clip(rim / spec.edge_taper, 0.0, 1.0) * (np.pi / 2.0)) ** 2
        keep = rng.random(len(points)) < keep_p
        points, truth = points[keep], truth[keep]
    if spec.noise > 0:
        points = points + rng.normal(0.0, spec.noise, points.shape)
    return PointCloud(points, {"truth": truth})


def truth_grid(cloud: PointCloud, spec: SceneSpec, params: ClassifyParams) -> SemanticGrid:
    """Reference semantic grid from truth labels and true ground heights.

    Applies the classifier's rules to ideal knowledge: true per-point
    elevations instead of the DEM, truth curb membership instead of
    detection, truth surface classes instead of ground candidates.
    """
    pts = cloud.points
    truth = cloud.channel("truth")
    return label_cells(pts[:, :2], pts[:, 2] - true_ground_height(spec, pts[:, :2]),
                       np.ones(len(pts), dtype=bool), truth == TRUTH_CURB,
                       (truth == TRUTH_ROAD) | (truth == TRUTH_SIDEWALK), params)
