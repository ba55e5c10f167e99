"""Curb point selection: plate saliency, height gating, outlier removal.

Curbs are short near-vertical faces meeting two near-horizontal surfaces
along a line, so their points carry high plate saliency. Thresholding the
plate channel yields line-feature candidates everywhere (tree crowns and
vehicle edges included); the DEM height gate then keeps only candidates
near ground level, and a radius outlier filter removes stray survivors
that do not form a dense line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .dem import DemGrid, ground_heights
from .neighbors import build_index, radius_neighbors


@dataclass(frozen=True)
class CurbParams:
    """Curb filter knobs.

    plate_threshold is a fraction of the per-cloud maximum plate
    saliency, which makes it scale-free across clouds of different
    density. The gate keeps candidates whose height above the DEM lies
    in [height_floor, height_ceiling]; the small negative floor admits
    gutter points just below the road median.
    """

    plate_threshold: float = 0.3
    height_ceiling: float = 0.5
    height_floor: float = -0.2
    outlier_radius: float = 0.3
    outlier_min_neighbors: int = 3

    def __post_init__(self):
        if not self.plate_threshold > 0:
            raise ValueError("plate_threshold must be positive")
        if not self.height_ceiling > 0:
            raise ValueError("height_ceiling must be positive")
        if not self.height_floor <= self.height_ceiling:
            raise ValueError("height_floor must not exceed height_ceiling")
        if not 0 < self.outlier_radius < math.inf:
            raise ValueError("outlier_radius must be positive and finite")
        if not self.outlier_min_neighbors > 0:
            raise ValueError("outlier_min_neighbors must be positive")


@dataclass(frozen=True)
class CurbDetection:
    """Detected curb point indices with per-point confidence in [0, 1].

    plate_candidates and height_gated count the points that passed the
    first two filters, the funnel leading to the final indices.
    """

    indices: np.ndarray
    confidence: np.ndarray
    plate_candidates: int
    height_gated: int


def plate_candidates(cloud: PointCloud, params: CurbParams) -> np.ndarray:
    """Indices whose plate saliency reaches the relative threshold.

    A cloud with no positive plate saliency (duplicate points, a single
    point) has no plate response to threshold, so it yields none.
    """
    plate = cloud.channel("plate")
    if not (len(plate) and plate.max() > 0):
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(plate >= params.plate_threshold * plate.max())


def height_gate(cloud: PointCloud, candidates: np.ndarray, dem: DemGrid,
                params: CurbParams) -> np.ndarray:
    """Keep candidates near ground level; drop those over unknown cells."""
    candidates = np.asarray(candidates, dtype=np.int64)
    if len(candidates) == 0:
        return candidates
    pts = cloud.points[candidates]
    ground, known = ground_heights(dem, pts[:, :2])
    above = pts[:, 2] - ground
    keep = known & (above >= params.height_floor) & (above <= params.height_ceiling)
    return candidates[keep]


def outlier_removal(cloud: PointCloud, candidates: np.ndarray, radius: float,
                    min_neighbors: int) -> np.ndarray:
    """Radius outlier criterion over the candidate set itself.

    A candidate survives when at least min_neighbors other candidates lie
    within radius (boundary inclusive). Exact duplicates count.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    if len(candidates) == 0:
        return candidates
    index = build_index(cloud.select(candidates), radius)
    return candidates[radius_neighbors(index, radius) - 1 >= min_neighbors]


def detect_curbs(cloud: PointCloud, dem: DemGrid, params: CurbParams) -> CurbDetection:
    """Full curb selection over a saliency-annotated cloud.

    The cloud must carry the plate channel. Confidence is the plate
    saliency normalized by the per-cloud maximum.
    """
    plate = cloud.channel("plate")
    stage1 = plate_candidates(cloud, params)
    stage2 = height_gate(cloud, stage1, dem, params)
    stage3 = outlier_removal(cloud, stage2, params.outlier_radius,
                             params.outlier_min_neighbors)
    confidence = plate[stage3] / plate.max() if len(stage3) else np.zeros(0)
    return CurbDetection(stage3, confidence, len(stage1), len(stage2))
