import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curbmap import (ClassifyParams, CurbmapError, FormatError, FrameMismatchError, LABEL_COLORS,
                     PointCloud, SceneSpec, SemanticGrid, SemanticLabel, TRAVERSABILITY,
                     classify_cells, read_compact, render_raster, truth_grid,
                     write_compact)
from curbmap.dem import DemGrid
from curbmap.scene import (TRUTH_CANOPY, TRUTH_CURB, TRUTH_ROAD, TRUTH_SIDEWALK,
                           TRUTH_WALL)
from curbmap.semantic import label_cells


def flat_dem(size=12, cell=1.0, height=0.0):
    shape = (size, size)
    return DemGrid((0.0, 0.0), cell, np.full(shape, float(height)), np.ones(shape, dtype=bool))


def classify(points, curb=(), ground=(), params=None, dem=None):
    cloud = PointCloud(np.asarray(points, dtype=float))
    return classify_cells(cloud, dem if dem is not None else flat_dem(),
                          np.asarray(curb, dtype=np.int64),
                          np.asarray(ground, dtype=np.int64),
                          params or ClassifyParams(cell=1.0))


def cell_points(cx, cy, z, n):
    return [[cx + 0.1 + 0.02 * k, cy + 0.5, z] for k in range(n)]


def label_at(grid, x, y):
    col = int((x - grid.origin[0]) // grid.cell)
    row = int((y - grid.origin[1]) // grid.cell)
    return grid.labels[row, col]


class TestLabelTable:
    def test_colors(self):
        assert LABEL_COLORS[SemanticLabel.ROAD_CURB] == (0, 128, 0)
        assert LABEL_COLORS[SemanticLabel.OBSTACLE] == (0, 0, 0)
        assert LABEL_COLORS[SemanticLabel.WALL_VEHICLE] == (255, 0, 0)
        assert LABEL_COLORS[SemanticLabel.ROAD] == (128, 128, 128)
        assert LABEL_COLORS[SemanticLabel.UNKNOWN] == (0, 64, 0)

    def test_traversability(self):
        assert TRAVERSABILITY[SemanticLabel.ROAD_CURB] == "certain conditions"
        assert TRAVERSABILITY[SemanticLabel.OBSTACLE] == "no"
        assert TRAVERSABILITY[SemanticLabel.WALL_VEHICLE] == "no"
        assert TRAVERSABILITY[SemanticLabel.ROAD] == "yes"
        assert TRAVERSABILITY[SemanticLabel.UNKNOWN] == "yes"

    def test_totality(self):
        assert set(LABEL_COLORS) == set(SemanticLabel)
        assert set(TRAVERSABILITY) == set(SemanticLabel)


class TestClassifyRules:
    def test_ground_cell_is_road(self):
        pts = cell_points(2, 2, 0.02, 6)
        grid = classify(pts, ground=range(6))
        assert label_at(grid, 2.5, 2.5) == SemanticLabel.ROAD

    def test_curb_cell_wins(self):
        pts = cell_points(2, 2, 0.1, 6)
        grid = classify(pts, curb=[0], ground=range(1, 6))
        assert label_at(grid, 2.5, 2.5) == SemanticLabel.ROAD_CURB

    def test_empty_cell_unknown(self):
        pts = cell_points(0, 0, 0.0, 6) + cell_points(5, 5, 0.0, 6)
        grid = classify(pts, ground=range(12))
        assert label_at(grid, 3.5, 3.5) == SemanticLabel.UNKNOWN

    def test_sparse_cell_unknown_even_with_curb(self):
        pts = cell_points(1, 1, 0.1, 2)
        grid = classify(pts, curb=[0, 1])
        assert label_at(grid, 1.5, 1.5) == SemanticLabel.UNKNOWN

    def test_wall_cell(self):
        pts = cell_points(3, 3, 1.8, 12)
        grid = classify(pts)
        assert label_at(grid, 3.5, 3.5) == SemanticLabel.WALL_VEHICLE

    def test_obstacle_cell(self):
        pts = cell_points(4, 4, 0.5, 8)
        grid = classify(pts)
        assert label_at(grid, 4.5, 4.5) == SemanticLabel.OBSTACLE

    def test_wall_beats_obstacle_evidence(self):
        pts = cell_points(3, 3, 1.8, 12) + cell_points(3, 3, 0.5, 4)
        grid = classify(pts)
        assert label_at(grid, 3.5, 3.5) == SemanticLabel.WALL_VEHICLE

    def test_curb_beats_wall(self):
        pts = cell_points(3, 3, 1.8, 12) + cell_points(3, 3, 0.12, 2)
        grid = classify(pts, curb=[12])
        assert label_at(grid, 3.5, 3.5) == SemanticLabel.ROAD_CURB

    def test_tall_points_not_obstacle(self):
        # above robot height but too few for a wall: stays unknown
        pts = cell_points(5, 5, 1.8, 5)
        grid = classify(pts)
        assert label_at(grid, 5.5, 5.5) == SemanticLabel.UNKNOWN

    def test_ground_minority_not_road(self):
        pts = cell_points(2, 2, 0.02, 3) + cell_points(2, 2, 0.05, 4)
        grid = classify(pts, ground=range(3))
        assert label_at(grid, 2.5, 2.5) == SemanticLabel.UNKNOWN

    def test_unknown_dem_region_stays_unknown(self):
        # the second cluster sits past the DEM extent: no height evidence
        dem = flat_dem(size=2)
        pts = cell_points(1, 1, 0.0, 6) + cell_points(8, 8, 0.0, 8)
        grid = classify(pts, ground=range(14), dem=dem)
        assert label_at(grid, 1.5, 1.5) == SemanticLabel.ROAD
        assert label_at(grid, 8.5, 8.5) == SemanticLabel.UNKNOWN

    def test_frame_mismatch(self):
        dem = flat_dem(size=2)
        with pytest.raises(FrameMismatchError):
            classify(cell_points(100, 100, 0.0, 6), dem=dem)

    def test_monotone_unknown_when_points_removed(self):
        pts = cell_points(2, 2, 0.02, 4)
        full = classify(pts, ground=range(4))
        assert label_at(full, 2.5, 2.5) == SemanticLabel.ROAD
        reduced = classify(pts[:2], ground=range(2))
        assert label_at(reduced, 2.5, 2.5) == SemanticLabel.UNKNOWN

    def test_every_cell_labeled(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(0, 10, 400), rng.uniform(0, 10, 400),
                               rng.uniform(0, 2, 400)])
        grid = classify(pts, ground=range(0, 400, 3))
        assert (grid.labels <= max(SemanticLabel)).all()


class TestTruthGrid:
    def test_hand_built_cells(self):
        # true ground is 0 on the road (|x| < 3) and 0.15 on the sidewalk
        groups = [  # (cell x, cell y, z, points, truth class)
            (0, 0, 0.02, 6, TRUTH_ROAD),
            (1, 0, 0.10, 3, TRUTH_CURB), (1, 0, 0.02, 3, TRUTH_ROAD),
            (2, 0, 1.80, 12, TRUTH_WALL),
            (4, 0, 0.17, 6, TRUTH_SIDEWALK),
            (0, 2, 0.50, 6, TRUTH_CANOPY),
            (1, 2, 0.02, 2, TRUTH_ROAD),
            (3, 2, 1.80, 10, TRUTH_WALL),   # not more than wall_point_threshold
        ]
        points = [p for cx, cy, z, n, _ in groups for p in cell_points(cx, cy, z, n)]
        truth = np.concatenate([np.full(n, t) for *_, n, t in groups])
        cloud = PointCloud(np.array(points), {"truth": truth})
        grid = truth_grid(cloud, SceneSpec(), ClassifyParams(cell=1.0))
        road, curb, wall, obstacle, unknown = (
            SemanticLabel.ROAD, SemanticLabel.ROAD_CURB, SemanticLabel.WALL_VEHICLE,
            SemanticLabel.OBSTACLE, SemanticLabel.UNKNOWN)
        assert grid.origin == (0.0, 0.0)
        assert grid.labels.tolist() == [[road, curb, wall, unknown, road],
                                        [unknown] * 5,
                                        [obstacle, unknown, unknown, unknown, unknown]]

    def test_far_point_refused_before_allocation(self):
        points = np.array([[0.1, 0.1, 0.0], [1.0, 0.5, 0.0], [0.3, 0.2, 0.0],
                           [1e4, 1e4, 0.0]])
        cloud = PointCloud(points, {"truth": np.full(4, TRUTH_ROAD)})
        tracemalloc.start()
        try:
            with pytest.raises(CurbmapError, match=r"extent 9999.9 x 9999.9 m at cell size 0.12 m"):
                truth_grid(cloud, SceneSpec(), ClassifyParams())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16   # the 83,334 x 83,334 grid would take ~190 GB

    def test_counts_occupied_cells_only(self):
        # two points 2,047 cells apart span a 2,048 x 2,048 grid; the label
        # raster, one byte per cell, is the only array of that size
        xy = np.array([[0.5, 0.5], [2047.5, 2047.5]])
        tracemalloc.start()
        try:
            grid = label_cells(xy, np.zeros(2), np.zeros(0, dtype=np.int64),
                               np.ones(2, dtype=bool), ClassifyParams(cell=1.0, min_points=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.shape == (2048, 2048)
        assert grid.labels[0, 0] == grid.labels[-1, -1] == SemanticLabel.ROAD
        assert (grid.labels == SemanticLabel.UNKNOWN).sum() == grid.labels.size - 2
        assert peak < 2 * grid.labels.size


class TestClassifyMemory:
    def test_peak_per_point(self, rng):
        # about one occupied 0.12 m cell per point, as on a sparse survey:
        # the per-cell counts cost as much as the per-point arrays. The
        # peak is 33.2 bytes per point here (38.9 with a separate masked
        # copy of the heights and three counts alive at once; the earlier
        # binning and per-cell arrays read 87.3)
        n = 100_000
        points = np.column_stack([rng.uniform(0, 40, size=(n, 2)), rng.normal(0, 0.05, n)])
        points[::7, 2] += rng.uniform(0.2, 3.0, size=len(points[::7]))
        points[-20:] = [20.05, 20.05, 2.0]   # one wall cell
        cloud = PointCloud(points)
        dem = flat_dem(size=41)
        curb, ground = np.arange(0, n, 50), np.arange(0, n, 2)
        classify_cells(cloud, dem, curb, ground, ClassifyParams())   # first calls import lazily
        tracemalloc.start()
        try:
            grid = classify_cells(cloud, dem, curb, ground, ClassifyParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(np.unique(grid.labels)) == len(SemanticLabel)
        assert peak < 36 * n


class TestRenderRaster:
    def test_unknown_grid_pixels(self):
        grid = SemanticGrid((0, 0), 0.12,
                            np.full((2, 2), int(SemanticLabel.UNKNOWN), dtype=np.uint8))
        data = render_raster(grid)
        assert data.startswith(b"P6\n2 2\n255\n")
        assert data[11:] == bytes([0, 64, 0] * 4)

    def test_header_declares_cols_then_rows(self):
        grid = SemanticGrid((0, 0), 0.12, np.zeros((3, 5), dtype=np.uint8))
        assert render_raster(grid).startswith(b"P6\n5 3\n255\n")

    def test_each_label_color(self):
        labels = np.array([[int(l) for l in SemanticLabel]], dtype=np.uint8)
        grid = SemanticGrid((0, 0), 0.12, labels)
        pixels = render_raster(grid)[len(b"P6\n5 1\n255\n"):]
        for k, label in enumerate(SemanticLabel):
            assert tuple(pixels[3 * k:3 * k + 3]) == LABEL_COLORS[label]


def grid_from_labels(labels, origin=(0.0, 0.0), cell=0.12):
    return SemanticGrid(origin, cell, np.asarray(labels, dtype=np.uint8))


class TestCompactFormat:
    def test_size_is_cells_plus_36(self):
        grid = grid_from_labels(np.full((100, 100), 4))
        assert len(write_compact(grid)) == 100 * 100 + 36

    def test_round_trip(self, rng):
        labels = rng.integers(0, 5, size=(37, 53))
        grid = grid_from_labels(labels, origin=(-3.25, 7.5), cell=0.12)
        back = read_compact(write_compact(grid))
        assert np.array_equal(back.labels, grid.labels)
        assert back.origin == grid.origin
        assert back.cell == grid.cell

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, rows, cols, seed):
        labels = np.random.default_rng(seed).integers(0, 5, size=(rows, cols))
        grid = grid_from_labels(labels)
        back = read_compact(write_compact(grid))
        assert np.array_equal(back.labels, grid.labels)

    def test_raster_consistency_through_compact(self, rng):
        grid = grid_from_labels(rng.integers(0, 5, size=(20, 30)))
        assert render_raster(read_compact(write_compact(grid))) == render_raster(grid)

    def test_bad_magic(self):
        data = write_compact(grid_from_labels(np.zeros((2, 2))))
        with pytest.raises(FormatError):
            read_compact(b"XXXX" + data[4:])

    def test_truncated(self):
        data = write_compact(grid_from_labels(np.zeros((2, 2))))
        with pytest.raises(FormatError):
            read_compact(data[:-1])

    def test_bad_label_byte(self):
        data = bytearray(write_compact(grid_from_labels(np.zeros((2, 2)))))
        data[-1] = 99
        with pytest.raises(FormatError):
            read_compact(bytes(data))
