import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curbmap import (CurbmapError, PointCloud, SceneSpec, VotingParams, build_index,
                     generate_scene, neighbors, radius_neighbors, sparse_vote)
from curbmap.voting import CUTOFF_SIGMAS

from oracles import brute_force_neighbors, double_loop_vote


def cloud_of(points):
    return PointCloud(np.asarray(points, dtype=float))


class TestBuildIndex:
    def test_empty_cloud_empty_index(self):
        index = build_index(cloud_of(np.zeros((0, 3))), 1.0)
        assert index.cell_count == 0
        assert len(index.order) == 0

    def test_two_far_points_two_cells(self):
        index = build_index(cloud_of([[0, 0, 0], [10, 0, 0]]), 1.0)
        assert index.cell_count == 2

    def test_every_point_in_exactly_one_cell(self, rng):
        points = rng.uniform(-5, 5, size=(10_000, 3))
        index = build_index(cloud_of(points), 0.7)
        populations = np.concatenate([index.cell_points(slot)
                                      for slot in range(index.cell_count)])
        assert len(populations) == 10_000
        assert len(np.unique(populations)) == 10_000

    def test_cell_formula(self, rng):
        points = rng.uniform(-3, 3, size=(500, 3))
        index = build_index(cloud_of(points), 0.9)
        for slot in range(index.cell_count):
            members = index.cell_points(slot)
            cells = np.floor((points[members] - index.origin) / 0.9).astype(int)
            cx, cy, cz = cells[0]
            assert (cells == cells[0]).all()
            assert (cx * index.dims[1] + cy) * index.dims[2] + cz == index.cell_keys[slot]

    def test_peak_per_point(self, rng):
        # cell keys are folded one axis at a time from one float column,
        # not from (n, 3) temporaries: reads 24.0 bytes per point here
        # (51.8 while np.unique sorted the keys a second time), 75.8 with
        # the four (n, 3) temporaries it replaced
        cloud = cloud_of(rng.uniform(0, 20, size=(200_000, 3)))
        tracemalloc.start()
        try:
            build_index(cloud, 0.788)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 56 * len(cloud)

    def test_street_peak_per_point(self, street_cloud):
        # cell starts and counts come from the sorted keys' change mask:
        # keys, order and the sorted keys read 24.0 bytes per point on the
        # street, 50.0 when np.unique sorted the sorted keys once more
        tracemalloc.start()
        try:
            build_index(street_cloud, VotingParams(sigma=0.3).cutoff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * len(street_cloud)

    def test_nonpositive_cell_size_rejected(self):
        with pytest.raises(ValueError):
            build_index(cloud_of([[0, 0, 0]]), 0.0)

    @pytest.mark.parametrize("cell_size", [math.inf, math.nan])
    def test_nonfinite_cell_size_rejected(self, cell_size):
        with pytest.raises(ValueError, match="finite"):
            build_index(cloud_of([[0, 0, 0]]), cell_size)


class TestOctantRule:
    """Half cells are twice the index cell plus the octant bit, exactly."""

    @settings(max_examples=200, deadline=None)
    @given(
        offset=st.tuples(*[st.floats(-1e6, 1e6)] * 3),
        extent=st.floats(1e-3, 1e3),
        cell=st.one_of(st.sampled_from([0.1, 1 / 3, 0.3 * CUTOFF_SIGMAS, 0.7, 1.0]),
                       st.floats(1e-3, 1e3)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_half_cell_is_twice_cell_plus_bit(self, offset, extent, cell, seed):
        # the walker's half cells come from the subtraction build_index
        # uses; halving the divisor doubles the quotient exactly, so
        # floor(x / (c / 2)) - 2 floor(x / c) is the octant bit, 0 or 1
        points = np.asarray(offset) + np.random.default_rng(seed).uniform(
            0, extent, size=(200, 3))
        index = build_index(cloud_of(points), cell)
        for slot in range(index.cell_count):
            members = index.cell_points(slot)
            x = points[members] - index.origin
            halves = np.floor(x / (cell / 2)).astype(np.int64)
            bit = halves - 2 * np.floor(x / cell).astype(np.int64)
            assert np.isin(bit, (0, 1)).all()
            # so every member's half cell halves to its index cell
            assert (halves // 2 == np.stack(index._decode(index.cell_keys[slot]))).all()


def brute_force_counts(cloud, radius):
    return np.array([len(brute_force_neighbors(cloud, p, radius)[0]) for p in cloud.points],
                    dtype=np.int64)


def with_far_point(far):
    """200 points in [0, 2]^3 plus one at (far, far, far)."""
    points = np.random.default_rng(5).uniform(0, 2, size=(200, 3))
    return cloud_of(np.vstack([points, [far, far, far]]))


class TestCellKeyRange:
    """Cell keys are int64, so the grid must have fewer than 2**63 cells."""

    # 1e7: 2.0e21 cells, whose wrapped keys left cells without candidates;
    # 1e12: keys wrapped onto other cells; 1e30: the int64 cast itself fails.
    @pytest.mark.parametrize("far", [1e7, 1e12, 1e30])
    def test_too_many_cells_rejected(self, far):
        with pytest.raises(CurbmapError, match=r"extent .* cell size 0\.788"):
            build_index(with_far_point(far), 0.788)

    def test_below_the_limit_matches_references(self):
        # 1.27e6 cells a side, 2.0e18 in all: below 2**63
        cloud = with_far_point(1e6)
        params = VotingParams(sigma=0.5, cutoff=0.788)
        index = build_index(cloud, params.cutoff)
        assert np.array_equal(radius_neighbors(index, params.cutoff),
                              brute_force_counts(cloud, params.cutoff))
        assert np.array_equal(sparse_vote(cloud, index, params),
                              double_loop_vote(cloud.points, params.sigma, params.cutoff))


class TestRadiusNeighbors:
    def test_lone_point_self_included(self):
        index = build_index(cloud_of([[1, 2, 3]]), 1.0)
        assert radius_neighbors(index, 1.0).tolist() == [1]

    def test_far_point_excluded(self):
        index = build_index(cloud_of([[0, 0, 0], [2, 0, 0]]), 1.0)
        assert radius_neighbors(index, 1.0).tolist() == [1, 1]

    def test_boundary_distance_included(self):
        index = build_index(cloud_of([[0, 0, 0], [1, 0, 0]]), 1.0)
        assert radius_neighbors(index, 1.0).tolist() == [2, 2]

    def test_empty_index(self):
        index = build_index(cloud_of(np.zeros((0, 3))), 1.0)
        counts = radius_neighbors(index, 2.0)
        assert len(counts) == 0 and counts.dtype == np.int64

    def test_nonpositive_radius_rejected(self):
        index = build_index(cloud_of([[0, 0, 0]]), 1.0)
        with pytest.raises(ValueError):
            radius_neighbors(index, -1.0)

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_nonfinite_radius_rejected(self, radius):
        index = build_index(cloud_of([[0, 0, 0]]), 1.0)
        with pytest.raises(ValueError, match="finite"):
            radius_neighbors(index, radius)


class TestOracleEquivalence:
    def test_results_identical_to_brute_force(self, rng):
        cloud = cloud_of(rng.uniform(0, 8, size=(2000, 3)))
        for radius in rng.uniform(0.2, 2.5, size=4):
            counts = radius_neighbors(build_index(cloud, 0.8), radius)
            assert np.array_equal(counts, brute_force_counts(cloud, radius))

    def test_sorted_by_index(self, rng):
        # counts follow point order, not the cell order of the walk
        points = rng.uniform(0, 3, size=(500, 3))
        perm = rng.permutation(500)
        counts = radius_neighbors(build_index(cloud_of(points), 0.5), 1.2)
        permuted = radius_neighbors(build_index(cloud_of(points[perm]), 0.5), 1.2)
        assert np.array_equal(permuted, counts[perm])

    def test_brute_force_empty_cloud(self):
        idx, dist = brute_force_neighbors(cloud_of(np.zeros((0, 3))), (0, 0, 0), 1.0)
        assert len(idx) == 0 and len(dist) == 0

    def test_radius_smaller_than_cell(self, rng):
        cloud = cloud_of(rng.uniform(0, 4, size=(800, 3)))
        counts = radius_neighbors(build_index(cloud, 1.5), 0.4)
        assert np.array_equal(counts, brute_force_counts(cloud, 0.4))

    def test_radius_larger_than_cell(self, rng):
        cloud = cloud_of(rng.uniform(0, 4, size=(800, 3)))
        counts = radius_neighbors(build_index(cloud, 0.3), 1.1)
        assert np.array_equal(counts, brute_force_counts(cloud, 1.1))

    def test_peak_memory_bounded(self):
        # about 40k points: candidate lists are built one cell batch at a
        # time, not as one table for the whole cloud
        cloud = generate_scene(SceneSpec(density=100))
        radius = VotingParams(sigma=0.3).cutoff
        index = build_index(cloud, radius)
        tracemalloc.start()
        try:
            radius_neighbors(index, radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(cloud) * 6 * 8   # as the vote's bound, (n, 6) float64


class TestCandidateLists:
    """The lists `blocks` builds a cell batch at a time, against one cell at a time."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        cell_size=st.sampled_from([0.4, 0.7, 1.0]),
        reach=st.sampled_from([0.5, 1.0, 1.6]),
        picks=st.lists(st.integers(0, 999), min_size=1, max_size=40),
        cell_batch=st.integers(1, 9),
        flat=st.sampled_from([None, 0, 1, 2]),
    )
    def test_batch_lists_equal_cell_candidates(self, seed, cell_size, reach, picks,
                                               cell_batch, flat):
        points = np.random.default_rng(seed).uniform(0, 4, size=(300, 3))
        if flat is not None:
            # one cell along that axis: a column's run is clamped at both ends
            points[:, flat] = 1.7
        index = build_index(cloud_of(points), cell_size)
        radius = reach * cell_size
        slots = list(dict.fromkeys(p % index.cell_count for p in picks))
        with pytest.MonkeyPatch.context() as patch:
            # one block per cell, so each yielded list is the cell's whole list
            patch.setattr(neighbors, "BLOCK_PAIRS", 1 << 40)
            patch.setattr(neighbors, "CELL_BATCH", cell_batch)
            blocks = list(index.blocks(slots, radius))
        assert len(blocks) == len(slots)
        cells = np.floor((points - index.origin) / cell_size).astype(np.int64)
        steps = int(np.ceil(radius / cell_size))
        for slot, (recv, cand) in zip(slots, blocks):
            assert np.array_equal(recv, index.cell_points(slot))
            assert np.array_equal(cand, index.cell_candidates(slot, radius))
            # every point of the cells within reach, ascending
            near = np.abs(cells - cells[recv[0]]).max(axis=1) <= steps
            assert np.array_equal(cand, np.flatnonzero(near))

    def test_table_equals_cell_candidates(self, rng):
        cloud = cloud_of(rng.uniform(0, 5, size=(1000, 3)))
        index = build_index(cloud, 0.6)
        cell_ptr, candidates = index.candidate_table(0.9)
        for slot in range(index.cell_count):
            assert np.array_equal(candidates[cell_ptr[slot]:cell_ptr[slot + 1]],
                                  index.cell_candidates(slot, 0.9))
