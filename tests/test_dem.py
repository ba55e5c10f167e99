import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curbmap import dem
from curbmap import (ChannelMissingError, CurbmapError, DemGrid, EmptyInputError, GroundParams,
                     PointCloud, VotingParams, build_height_grid,
                     extract_ground_candidates, ground_heights, ground_model,
                     refine_dem, saliency_field, to_ascii_grid)
from curbmap.dem import NODATA
from curbmap.pipeline import _write
from curbmap.scene import _sample_grid

from oracles import bin_cells, reference_float_rows, reference_median_grid, reference_refine_dem


def field_of_plane(rng, tilt_deg=0.0, half=1.5, density=400.0):
    xy = _sample_grid(rng, -half, half, -half, half, density, jitter=0.1)
    z = np.tan(np.radians(tilt_deg)) * xy[:, 0]
    points = np.column_stack([xy, z]) + rng.normal(0, 0.01, (len(xy), 3))
    return saliency_field(PointCloud(points), VotingParams(sigma=0.4))


def flat_candidates(rng, z=0.5, half=10.0, spacing=0.25, noise=0.01):
    """Dense ground-candidate points on a flat plane."""
    side = np.arange(-half, half, spacing)
    gx, gy = np.meshgrid(side, side)
    points = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, z)])
    return points + rng.normal(0, noise, points.shape)


class TestGroundParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroundParams(stick_threshold=0.0)
        with pytest.raises(ValueError):
            GroundParams(max_angle_deg=95.0)


class TestExtractGroundCandidates:
    def test_horizontal_plane_mostly_selected(self, rng):
        field = field_of_plane(rng)
        selected = np.zeros(len(field), dtype=bool)
        selected[extract_ground_candidates(field, GroundParams())] = True
        interior = np.abs(field.points[:, :2]).max(axis=1) < 0.9
        assert selected[interior].mean() >= 0.95

    def test_vertical_wall_rejected(self, rng):
        yz = _sample_grid(rng, -1.5, 1.5, -1.5, 1.5, 400.0, jitter=0.1)
        points = np.column_stack([np.zeros(len(yz)), yz[:, 0], yz[:, 1]])
        field = saliency_field(PointCloud(points + rng.normal(0, 0.01, points.shape)),
                               VotingParams(sigma=0.4))
        assert len(extract_ground_candidates(field, GroundParams())) == 0

    def test_tilt_against_angle_limit(self, rng):
        params = GroundParams(max_angle_deg=15.0)
        gentle = field_of_plane(rng, tilt_deg=10.0)
        steep = field_of_plane(rng, tilt_deg=30.0)
        interior = np.abs(gentle.points[:, :2]).max(axis=1) < 0.9
        picked = np.zeros(len(gentle), dtype=bool)
        picked[extract_ground_candidates(gentle, params)] = True
        assert picked[interior].mean() >= 0.9
        steep_interior = np.abs(steep.points[:, :2]).max(axis=1) < 0.9
        picked_steep = np.zeros(len(steep), dtype=bool)
        picked_steep[extract_ground_candidates(steep, params)] = True
        assert picked_steep[steep_interior].mean() <= 0.01

    def test_missing_channels(self):
        with pytest.raises(ChannelMissingError):
            extract_ground_candidates(PointCloud(np.zeros((1, 3))), GroundParams())


class TestBuildHeightGrid:
    def test_single_sample_cell(self):
        grid = build_height_grid(np.array([[0.2, 0.3, 1.5]]), 0.5, min_samples=1)
        assert grid.heights[0, 0] == 1.5
        assert grid.valid[0, 0]

    def test_median_riding_out_canopy_outlier(self):
        points = np.array([[0.1, 0.1, 1.0], [0.2, 0.2, 1.1], [0.3, 0.3, 5.0]])
        grid = build_height_grid(points, 0.5, min_samples=3)
        assert grid.heights[0, 0] == 1.1

    def test_even_count_takes_lower_middle(self):
        # no midpoint between a ground and an elevated mode
        points = np.array([[0.1, 0.1, 1.0], [0.2, 0.2, 3.0]])
        grid = build_height_grid(points, 0.5, min_samples=2)
        assert grid.heights[0, 0] == 1.0

    def test_min_samples_invalidates(self):
        points = np.array([[0.1, 0.1, 1.0], [0.2, 0.2, 1.1]])
        grid = build_height_grid(points, 0.5, min_samples=3)
        assert not grid.valid[0, 0]
        assert grid.heights[0, 0] == NODATA

    def test_flat_ground_with_canopy_noise(self, rng):
        # 5% canopy returns never outnumber ground samples in a cell, so
        # the median stays on the ground
        ground = flat_candidates(rng, spacing=0.15)
        keep = rng.random(len(ground)) < 0.05
        canopy = ground[keep] + np.array([0.0, 0.0, 3.0])
        grid = build_height_grid(np.concatenate([ground, canopy]), 0.5, min_samples=3)
        assert (np.abs(grid.heights[grid.valid] - 0.5) < 0.05).all()

    def test_cell_height_within_sample_range(self, rng):
        points = rng.uniform(-2, 2, size=(500, 3))
        grid = build_height_grid(points, 0.5, min_samples=1)
        rows, cols = bin_cells(points[:, :2], grid.origin, grid.cell)
        for r, c in zip(*np.nonzero(grid.valid)):
            cell_z = points[(rows == r) & (cols == c), 2]
            assert cell_z.min() <= grid.heights[r, c] <= cell_z.max()

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            build_height_grid(np.zeros((0, 3)), 0.5)

    def test_translation_equivariance_in_z(self, rng):
        points = flat_candidates(rng, half=4.0)
        base = build_height_grid(points, 0.5)
        lifted = build_height_grid(points + np.array([0.0, 0.0, 2.25]), 0.5)
        assert np.allclose(lifted.heights[lifted.valid],
                           base.heights[base.valid] + 2.25, atol=1e-9)


class TestMedianGrid:
    @settings(max_examples=100, deadline=None)
    @given(
        # cell (col, row) -> 1-4 values; few distinct values make ties,
        # and a min_count above 1 leaves some occupied cells invalid
        cells=st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.lists(st.sampled_from([-1.5, 0.0, 0.25, 0.5, 2.0]), min_size=1, max_size=4),
            min_size=1, max_size=10),
        min_count=st.integers(1, 4),
        data=st.data(),
    )
    def test_matches_reference(self, cells, min_count, data):
        samples = [(col, row, value)
                   for (col, row), cell_values in cells.items()
                   for value in cell_values]
        samples = data.draw(st.permutations(samples))
        xy = np.array([[(col + 0.5) * 0.5, (row + 0.5) * 0.5] for col, row, _ in samples])
        values = np.array([value for _, _, value in samples])
        got = dem._median_grid(xy, values, (0.0, 0.0), 0.5, min_count)
        expected = reference_median_grid(xy, values, (0.0, 0.0), 0.5, min_count)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestGridShape:
    @settings(max_examples=100, deadline=None)
    @given(
        xy=st.lists(st.tuples(*[st.floats(-50.0, 50.0, allow_nan=False)] * 2),
                    min_size=1, max_size=20),
        cell=st.sampled_from([0.12, 0.5, 1.0, 0.3]),
    )
    def test_holds_every_binned_point(self, xy, cell):
        xy = np.array(xy)
        origin = dem.snapped_origin(xy, cell)
        row, col = bin_cells(xy, origin, cell)
        assert dem.grid_shape(xy, origin, cell) == (int(row.max()) + 1, int(col.max()) + 1)

    @settings(max_examples=200, deadline=None)
    @given(
        # few distinct coordinates make many points share a cell, and the
        # range puts points on both sides of the origin
        xy=st.lists(st.tuples(*[st.sampled_from([-7.3, -2.0, -0.12, 0.0, 0.05, 0.6, 3.25, 9.9])
                                | st.floats(-20.0, 20.0, allow_nan=False)] * 2),
                    min_size=1, max_size=40),
        cell=st.sampled_from([0.12, 0.5, 1.0, 0.3]),
        shift=st.sampled_from([0.0, 0.5, 2.0]),
    )
    def test_occupied_cells_match_unique_inverse(self, xy, cell, shift):
        xy = np.array(xy)
        # a snapped origin, or one below it, so that rows and columns start above 0
        origin = tuple(np.subtract(dem.snapped_origin(xy, cell), shift))
        (nrows, ncols), cells, slot = dem.occupied_cells(xy, origin, cell)
        row, col = bin_cells(xy, origin, cell)
        expected_cells, expected_slot = np.unique(row * ncols + col, return_inverse=True)
        assert (nrows, ncols) == dem.grid_shape(xy, origin, cell)
        assert cells.dtype == expected_cells.dtype and np.array_equal(cells, expected_cells)
        assert slot.dtype == expected_slot.dtype and np.array_equal(slot, expected_slot)

    def test_limit_is_inclusive(self):
        # a 4,096 x 8,192 grid holds exactly MAX_GRID_CELLS; one more column fails
        assert 4096 * 8192 == dem.MAX_GRID_CELLS
        xy = np.array([[0.5, 0.5], [8191.5, 4095.5]])
        assert dem.grid_shape(xy, (0.0, 0.0), 1.0) == (4096, 8192)
        with pytest.raises(CurbmapError, match="4096 x 8193 grid cells"):
            dem.grid_shape(xy + [[0.0, 0.0], [1.0, 0.0]], (0.0, 0.0), 1.0)

    def test_far_point_refused_before_allocation(self):
        xy = np.array([[0.0, 0.0], [1.0, 0.5], [0.3, 0.2], [1e4, 1e4]])
        tracemalloc.start()
        try:
            with pytest.raises(CurbmapError, match=r"extent 10000 x 10000 m at cell size 0.5 m"):
                build_height_grid(np.column_stack([xy, np.zeros(4)]), 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16   # the 20,000 x 20,000 grid would take 3.2 GB


class TestRefineDem:
    def test_flat_grid_unchanged(self, rng):
        grid = build_height_grid(flat_candidates(rng, noise=0.0), 0.5)
        refined = refine_dem(grid)
        assert refined.valid.all()
        assert np.allclose(refined.heights, 0.5, atol=1e-9)

    def test_polluted_cell_recovered(self, rng):
        ground = flat_candidates(rng)
        # a tree top dominating one refined cell
        blob = rng.uniform(0, 1, size=(400, 3)) * np.array([1, 1, 0.02]) + np.array([2, 3, 3.5])
        grid = build_height_grid(np.concatenate([ground, blob]), 0.5, min_samples=3)
        refined = refine_dem(grid, 10.0, 1.0, 0.3)
        row, col = bin_cells(np.array([[2.5, 3.5]]), refined.origin, refined.cell)
        assert refined.valid[row[0], col[0]]
        assert abs(refined.heights[row[0], col[0]] - 0.5) < 0.05

    def test_gentle_grade_survives(self, rng):
        points = flat_candidates(rng, half=10.0)
        points[:, 2] = 0.02 * points[:, 0] + rng.normal(0, 0.01, len(points))
        refined = refine_dem(build_height_grid(points, 0.5), 10.0, 1.0, 0.3)
        assert refined.valid.mean() > 0.99
        centers_x = refined.origin[0] + (np.arange(refined.shape[1]) + 0.5) * refined.cell
        expected = 0.02 * centers_x
        assert np.abs(refined.heights - expected[None, :])[refined.valid].max() < 0.05

    def test_consistency_postcondition(self, rng):
        ground = flat_candidates(rng)
        blob = rng.uniform(0, 1, size=(300, 3)) * np.array([2, 2, 0.05]) + np.array([-4, -4, 2.0])
        grid = build_height_grid(np.concatenate([ground, blob]), 0.5, min_samples=3)
        refined = refine_dem(grid, 10.0, 1.0, 0.3)
        coarse = build_height_grid(ground, 10.0, min_samples=1)
        rows, cols = np.nonzero(refined.valid)
        centers = np.column_stack([
            refined.origin[0] + (cols + 0.5) * refined.cell,
            refined.origin[1] + (rows + 0.5) * refined.cell,
        ])
        heights, known = ground_heights(coarse, centers)
        deviations = np.abs(refined.heights[rows, cols] - heights)[known]
        assert deviations.max() <= 0.3 + 0.05

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
           cell=st.sampled_from([0.25, 0.5, 1.0]), refined=st.sampled_from([0.5, 1.0, 1.5]),
           coarse=st.sampled_from([2.0, 3.0, 10.0]), consistency=st.sampled_from([0.05, 0.2, 0.3]))
    def test_matches_reference(self, seed, shape, cell, refined, coarse, consistency):
        # noisy ground with 20% raised cells, so cells are invalidated and refilled
        rng = np.random.default_rng(seed)
        valid = rng.integers(0, 6, shape) >= 2
        raised = (rng.random(shape) < 0.2) * rng.uniform(0.3, 3.0, shape)
        heights = np.where(valid, rng.normal(0.0, 0.1, shape) + raised, NODATA)
        grid = DemGrid(tuple(rng.uniform(-5.0, 5.0, 2)), cell, heights, valid)
        if not valid.any():
            with pytest.raises(EmptyInputError):
                refine_dem(grid, coarse, refined, consistency)
            return
        got = refine_dem(grid, coarse, refined, consistency)
        expected = reference_refine_dem(grid, coarse, refined, consistency)
        assert (got.origin, got.cell) == (expected.origin, expected.cell)
        for name in ("heights", "valid"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestGroundQueries:
    def test_known_cell(self, rng):
        dem = refine_dem(build_height_grid(flat_candidates(rng), 0.5))
        heights, known = ground_heights(dem, [[0.0, 0.0]])
        assert known[0] and abs(heights[0] - 0.5) < 0.05

    def test_outside_extent_unknown(self, rng):
        dem = refine_dem(build_height_grid(flat_candidates(rng, half=2.0), 0.5))
        heights, known = ground_heights(dem, [[50.0, 50.0]])
        assert not known[0] and heights[0] == NODATA

    def test_invalid_cell_unknown(self):
        points = np.tile(np.array([[0.25, 0.25, 1.0]]), (5, 1))
        far = np.tile(np.array([[10.25, 10.25, 1.0]]), (5, 1))
        dem = refine_dem(build_height_grid(np.concatenate([points, far]), 0.5), 10.0, 1.0, 0.3)
        heights, known = ground_heights(dem, [[5.0, 5.0]])
        assert not known[0] and heights[0] == NODATA


def reference_ground_heights(grid, xy):
    """Clipped 2-D indexing and np.where: the lookup as first written."""
    row, col = bin_cells(xy, grid.origin, grid.cell)
    nrows, ncols = grid.shape
    inside = (row >= 0) & (row < nrows) & (col >= 0) & (col < ncols)
    rs, cs = np.clip(row, 0, nrows - 1), np.clip(col, 0, ncols - 1)
    known = inside & grid.valid[rs, cs]
    return np.where(known, grid.heights[rs, cs], NODATA), known


class TestGroundHeightsProperty:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
           cell=st.sampled_from([0.5, 1.0, 0.3]))
    def test_matches_reference(self, seed, shape, cell):
        rng = np.random.default_rng(seed)
        valid = rng.random(shape) < 0.6
        heights = np.where(valid, rng.normal(0, 1, shape), NODATA)
        grid = DemGrid((-1.0, 2.0), cell, heights, valid)
        # queries inside, on the edges of and well outside the grid
        xy = rng.uniform(-3.0, 4.0 + 8 * cell, size=(200, 2)) + [-1.0, 2.0]
        xy[:4] = [[-1.0, 2.0], [-1.0 + shape[1] * cell, 2.0], [-1.0, 2.0 + shape[0] * cell],
                  [-1.0 - 1e-12, 2.0]]
        got, known = ground_heights(grid, xy)
        expected, expected_known = reference_ground_heights(grid, xy)
        assert got.tobytes() == expected.tobytes() and np.array_equal(known, expected_known)


class TestStageMemory:
    def test_ground_model_peak_per_point(self, rng):
        # every point a ground candidate: the DEM stage's worst case. The
        # peak holds the candidates' indices and coordinates plus the
        # binning and lower-median arrays: 56.6 bytes per point here (the
        # unit weights, float temporaries and np.unique inverse of the
        # earlier binning read 105.5)
        n = 100_000
        points = np.column_stack([rng.uniform(0, 40, size=(n, 2)), rng.normal(0, 0.02, n)])
        cloud = PointCloud(points, {"stick": np.ones(n), "nx": np.zeros(n),
                                    "ny": np.zeros(n), "nz": np.ones(n)})
        ground_model(cloud, GroundParams())   # first calls import lazily
        tracemalloc.start()
        try:
            ground_idx, refined = ground_model(cloud, GroundParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ground_idx) == n and refined.valid.any()
        assert peak < 64 * n

    def test_dem_peak_per_cell(self, rng):
        # two 30 m clusters 1 km apart: nearly every cell of the dense
        # grids is empty, so the peaks are bytes per cell. They read 9.1
        # per height cell and 37.4 per refined cell; one more int64 grid
        # (a sample count per cell) breaks both bounds
        points = np.concatenate([
            np.column_stack([rng.uniform(0, 30, (20_000, 2)) + corner, rng.normal(0, 0.02, 20_000)])
            for corner in (0.0, 1000.0)])
        refine_dem(build_height_grid(points[:100], 0.5, min_samples=1))   # warm
        tracemalloc.start()
        try:
            grid = build_height_grid(points, 0.5)
            height_peak = tracemalloc.get_traced_memory()[1]
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            refined = refine_dem(grid)
            refine_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert (grid.heights.size, refined.heights.size) == (2060 * 2060, 1030 * 1030)
        assert refined.valid.any()
        assert height_peak < 11 * grid.heights.size
        assert refine_peak < 45 * refined.heights.size


class TestAsciiExport:
    def test_header_and_rows(self):
        grid = build_height_grid(np.array([[0.1, 0.1, 2.0]] * 3), 0.5, min_samples=3)
        lines = to_ascii_grid(grid).strip().splitlines()
        assert lines[0] == b"ncols 1"
        assert lines[1] == b"nrows 1"
        assert b"cellsize 0.5" in lines[4]
        assert float(lines[6]) == 2.0

    def test_grid_text_matches_repr_top_row_first(self):
        heights = np.array([[0.5, NODATA, -1.25, 1e-05],
                            [NODATA, -0.001, 2.5e20, 3.0],
                            [-7e-07, 12.345678901234567, NODATA, -0.0]])
        valid = heights != NODATA
        grid = DemGrid((-1.5, 2.25), 0.5, heights, valid)
        header = ("ncols 4\nnrows 3\nxllcorner -1.5\nyllcorner 2.25\ncellsize 0.5\n"
                  "NODATA_value -9999.0\n")
        rows = "".join(" ".join(map(repr, row)) + "\n" for row in heights[::-1].tolist())
        assert rows.startswith("-7e-07 12.345678901234567 -9999.0 -0.0\n")
        assert to_ascii_grid(grid) == (header + rows).encode()

    def test_numpy_scalar_header_reads_as_python_floats(self):
        # numpy 2 reprs a scalar as np.float64(1.5)
        heights = np.array([[0.5, NODATA]])
        valid = heights != NODATA
        floats = DemGrid((1.5, -2.0), 0.5, heights, valid)
        scalars = DemGrid(tuple(np.array([1.5, -2.0])), np.float64(0.5), heights, valid)
        assert to_ascii_grid(scalars) == to_ascii_grid(floats)
        assert b"xllcorner 1.5\nyllcorner -2.0\ncellsize 0.5\n" in to_ascii_grid(scalars)

    @pytest.mark.parametrize("budget", [1, 4, 7, 8, 12, 1 << 16])
    def test_row_chunks_join_to_whole_rows(self, rng, monkeypatch, budget):
        heights = rng.normal(0.0, 3.0, (5, 4))
        heights[rng.random((5, 4)) < 0.3] = NODATA
        grid = DemGrid((0.0, 0.0), 0.5, heights, heights != NODATA)
        monkeypatch.setattr(dem, "_ASCII_CHUNK_VALUES", budget)
        rows = "".join(" ".join(map(repr, row)) + "\n" for row in heights[::-1].tolist())
        assert to_ascii_grid(grid).endswith(b"NODATA_value -9999.0\n" + rows.encode())

    @staticmethod
    def wide_grid(rng, nrows):
        """nrows rows of 2,512 mostly empty cells, as a long diagonal road's
        refined DEM."""
        heights = np.full((nrows, 2512), NODATA)
        valid = rng.random(heights.shape) < 0.0015
        heights[valid] = rng.normal(0.0, 2.0, valid.sum())
        return DemGrid((0.0, 0.0), 0.5, heights, valid)

    def test_wide_grid_peak_memory(self, rng):
        # the values are formatted a few rows at a time
        grid = self.wide_grid(rng, 200)
        heights, valid = grid.heights, grid.valid
        to_ascii_grid(DemGrid((0.0, 0.0), 0.5, heights[:1], valid[:1]))  # warm
        tracemalloc.start()
        try:
            text = to_ascii_grid(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the joined text twice, plus one row chunk's working set
        assert peak < 8 * len(text)   # reads about 5x; 32x in 512-row chunks
        assert text.endswith(reference_float_rows(list(heights[::-1].T)))

    def test_written_peak_does_not_grow_with_rows(self, rng, tmp_path):
        # the pipeline writes the chunks as they come, so the written text
        # is never held whole: ten times the rows, about the same peak
        peaks = []
        for nrows in (100, 1000):
            grid = self.wide_grid(rng, nrows)
            path = tmp_path / f"{nrows}.asc"
            tracemalloc.start()
            try:
                _write(str(path), dem.dem_chunks(grid), [])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert path.read_bytes() == to_ascii_grid(grid)
        assert peaks[1] < 1.25 * peaks[0], peaks
