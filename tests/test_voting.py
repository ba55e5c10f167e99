import json
import math
import os
import platform
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curbmap
from curbmap import (EmptyInputError, PointCloud, VotingParams, attach_saliencies, build_index,
                     decay, decompose_batch, saliencies, saliency_field, sparse_vote)
from curbmap import neighbors, voting
from curbmap.scene import SceneSpec, _sample_grid, generate_scene
from curbmap.voting import CUTOFF_SIGMAS

from oracles import (ball_vote_quadrature, count_vote_pairs, double_loop_vote, frobenius,
                     random_rotation, sym_to_matrices)

E_INV = 0.36787944117144233  # exp(-1)
E_4 = 0.01831563888873418    # exp(-4)


def cloud_of(points):
    return PointCloud(np.asarray(points, dtype=float))


def grid_vote(points, params, cell_size=None, threads=1):
    """sparse_vote over an index of `cell_size` cells (default: the cutoff)."""
    cloud = cloud_of(points)
    index = build_index(cloud, params.cutoff if cell_size is None else cell_size)
    return sparse_vote(cloud, index, params, threads=threads)


# Cells this wide hold each test cloud in one cell: every point is a
# candidate of every receiver, the layout a brute-force vote examines.
ONE_CELL = 10.0


def votes_alone(points, sigma, cutoff):
    """The (n, 6) votes each point receives, without its unit ball: the vote
    kernel with every point as receiver and as candidate."""
    p = np.asarray(points, dtype=float).T
    return voting._reduce_block(p, p, cutoff * cutoff, sigma * sigma)[0]


def pair_vote(receiver, voter, sigma):
    """The 3x3 vote `receiver` gets from `voter`."""
    return sym_to_matrices(votes_alone([receiver, voter], sigma, 100.0)[:1])[0]


class TestDecay:
    def test_zero_distance_is_one(self):
        assert decay(0.0, 1.0) == 1.0

    def test_at_sigma(self):
        assert abs(decay(1.0, 1.0) - E_INV) < 1e-12
        assert abs(decay(0.3, 0.3) - E_INV) < 1e-12

    def test_two_sigma_squared(self):
        assert abs(decay(2.0, 1.0) - E_4) < 1e-12

    def test_strictly_decreasing(self):
        sweep = decay(np.linspace(0.0, 5.0, 1000), 0.7)
        assert (np.diff(sweep) < 0).all()

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            decay(1.0, 0.0)


class TestVotingParams:
    def test_default_cutoff(self):
        params = VotingParams(sigma=0.3)
        assert abs(params.cutoff - 0.3 * math.sqrt(math.log(1000.0))) < 1e-15
        assert abs(CUTOFF_SIGMAS - 2.6282608848784663) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            VotingParams(sigma=-1.0)
        with pytest.raises(ValueError):
            VotingParams(sigma=1.0, cutoff=0.0)


class TestEncode:
    def test_single_point_identity(self):
        t6 = grid_vote([[1, 2, 3]], VotingParams(sigma=1.0))
        assert np.array_equal(t6, [[1, 0, 0, 1, 0, 1]])

    def test_all_identity_eigenvalues(self, rng):
        # 50 points 10 m apart: no pair is within the cutoff, so each keeps
        # only its unit ball encoding
        points = np.arange(50)[:, None] * np.array([10.0, 0.0, 0.0])
        points += rng.normal(0, 0.1, size=points.shape)
        t6 = grid_vote(points, VotingParams(sigma=0.3))
        lam, _ = decompose_batch(t6)
        assert np.allclose(lam, 1.0, atol=1e-12)
        stick, plate, ball = saliencies(lam)
        assert np.allclose(stick, 0, atol=1e-12)
        assert np.allclose(plate, 0, atol=1e-12)
        assert np.allclose(ball, 1, atol=1e-12)


class TestBallVote:
    def test_unit_offset_closed_form(self):
        vote = pair_vote((1, 0, 0), (0, 0, 0), 1.0)
        assert np.allclose(vote, E_INV * np.diag([0.0, 1.0, 1.0]), atol=1e-12)

    def test_null_direction_along_offset(self, rng):
        for _ in range(25):
            receiver = rng.normal(size=3)
            voter = rng.normal(size=3)
            vote = pair_vote(receiver, voter, 0.8)
            lam, vecs = np.linalg.eigh(vote)
            null_dir = vecs[:, 0]
            radial = (receiver - voter) / np.linalg.norm(receiver - voter)
            assert abs(abs(null_dir @ radial) - 1.0) < 1e-9
            assert abs(lam[0]) < 1e-12
            assert abs(lam[1] - lam[2]) < 1e-12

    def test_quadrature_oracle_proportional(self, rng):
        for _ in range(5):
            receiver = rng.normal(size=3)
            voter = receiver + rng.normal(size=3) * 0.4
            closed = pair_vote(receiver, voter, 0.5)
            integral = ball_vote_quadrature(receiver, voter, 0.5)
            diff = closed / frobenius(closed) - integral / frobenius(integral)
            assert frobenius(diff) < 0.02


class TestSparseVote:
    def test_isolated_point_keeps_encoding(self):
        cloud = cloud_of([[5, 5, 5]])
        index = build_index(cloud, 1.0)
        t6 = sparse_vote(cloud, index, VotingParams(sigma=1.0))
        assert np.array_equal(t6, [[1, 0, 0, 1, 0, 1]])

    def test_two_points_single_vote_algebra(self):
        lam, _ = decompose_batch(votes_alone([[0, 0, 0], [1, 0, 0]], 1.0, 2.0))
        stick, plate, ball = saliencies(lam)
        for k in range(2):
            assert np.allclose(np.sort(lam[k]), [0.0, E_INV, E_INV], atol=1e-12)
            assert abs(stick[k]) < 1e-12
            assert abs(plate[k] - E_INV) < 1e-12
            assert abs(ball[k]) < 1e-12

    def test_exact_duplicate_points_contribute_nothing(self):
        cloud = cloud_of([[1, 1, 1], [1, 1, 1], [2, 2, 2]])
        t6 = sparse_vote(cloud, build_index(cloud, 5.0), VotingParams(sigma=5.0))
        assert np.array_equal(t6[0], t6[1])

    def test_empty_cloud_rejected(self):
        with pytest.raises(EmptyInputError):
            grid_vote(np.zeros((0, 3)), VotingParams())

    def test_double_loop_oracle_exact(self, rng):
        points = rng.uniform(0, 3, size=(400, 3))
        cloud = cloud_of(points)
        params = VotingParams(sigma=0.4)
        expected = double_loop_vote(points, params.sigma, params.cutoff)
        via_grid = sparse_vote(cloud, build_index(cloud, params.cutoff), params)
        via_one_cell = grid_vote(points, params, ONE_CELL)
        assert np.array_equal(via_grid, expected)
        assert np.array_equal(via_one_cell, expected)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_double_loop_oracle_exact_over_cell_batches(self, rng, threads):
        # about 160 cutoff cells: several CELL_BATCH tasks, each building
        # its own candidate lists
        points = rng.uniform(0, 1, size=(1500, 3)) * [9.0, 9.0, 2.0]
        cloud = cloud_of(points)
        params = VotingParams(sigma=0.4)
        index = build_index(cloud, params.cutoff)
        assert index.cell_count > 2 * neighbors.CELL_BATCH
        expected = double_loop_vote(points, params.sigma, params.cutoff)
        assert np.array_equal(sparse_vote(cloud, index, params, threads=threads), expected)

    def test_peak_memory_bounded_by_output(self):
        # about 40k points: candidate lists are built one cell batch at a
        # time, so the peak is the (n, 6) output plus one batch and one block
        cloud = generate_scene(SceneSpec(density=100))
        params = VotingParams(sigma=0.3)
        index = build_index(cloud, params.cutoff)
        tracemalloc.start()
        try:
            sparse_vote(cloud, index, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(cloud) * 6 * 8

    def test_no_cloud_sized_copy(self, rng):
        # a 60k-point plane in small blocks, so the block working set
        # (0.4 MiB) is below a (3, n) coordinate copy (1.4 MiB): the peak
        # reads 54.8 bytes per point with the (n, 6) output as the only
        # cloud-sized array, 96.8 with a coordinate copy alive and the
        # self votes added through an (n, 3) fancy-indexed copy
        n = 60_000
        cloud = cloud_of(np.column_stack([rng.uniform(0, 43, size=(n, 2)), np.zeros(n)]))
        params = VotingParams(sigma=0.3)
        index = build_index(cloud, params.cutoff)
        tracemalloc.start()
        try:
            sparse_vote(cloud, index, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * 6 * 8 + n * 3 * 8

    def test_thread_count_does_not_change_bytes(self, rng):
        points = rng.uniform(0, 4, size=(3000, 3))
        cloud = cloud_of(points)
        params = VotingParams(sigma=0.35)
        index = build_index(cloud, params.cutoff)
        base = sparse_vote(cloud, index, params, threads=1)
        for threads in (2, 4, 7):
            assert np.array_equal(base, sparse_vote(cloud, index, params, threads=threads))

    def test_accumulated_tensors_are_psd(self, rng):
        points = rng.uniform(0, 2, size=(300, 3))
        lam, _ = decompose_batch(votes_alone(points, 0.5, 0.5 * CUTOFF_SIGMAS))
        assert lam.min() > -1e-9


def block_spy(monkeypatch):
    """Record (receivers, candidates) of every block the vote kernel sees."""
    seen = []
    kernel = voting._reduce_block

    def spy(rp, cp, *args):
        seen.append((rp.shape[1], cp.shape[1]))
        return kernel(rp, cp, *args)

    monkeypatch.setattr(voting, "_reduce_block", spy)
    return seen


def assert_blocks_bounded(seen):
    # a block never exceeds the pair budget unless it is a single row
    bound = neighbors.BLOCK_PAIRS
    assert seen
    for rows, cols in seen:
        assert rows * cols <= bound or rows == 1


class TestSplitBlocks:
    """Octant-split and row-chunked blocks against the double-loop oracle."""

    PARAMS = VotingParams(sigma=0.25, cutoff=0.5)

    @pytest.fixture
    def dense(self, rng):
        # 27 cutoff cells of ~100 points: every cell block is well above
        # BLOCK_PAIRS, the centre one (100 x 2,700) four times over
        return rng.uniform(0, 1.5, size=(2700, 3))

    def test_dense_cells_split_and_match_oracle(self, dense, monkeypatch):
        cutoff = self.PARAMS.cutoff
        cloud = cloud_of(dense)
        expected = double_loop_vote(dense, self.PARAMS.sigma, cutoff)
        index = build_index(cloud, cutoff)
        assert max(len(index.cell_points(s)) * len(index.cell_candidates(s, cutoff))
                   for s in range(index.cell_count)) > 4 * neighbors.BLOCK_PAIRS
        seen = block_spy(monkeypatch)
        for threads in (1, 2, 4):
            seen.clear()
            via_grid = sparse_vote(cloud, index, self.PARAMS, threads=threads)
            assert len(seen) > index.cell_count   # dense cells were split
            assert np.array_equal(via_grid, expected)
        for scale in (0.5, 1.5):
            other = build_index(cloud, scale * cutoff)
            assert np.array_equal(sparse_vote(cloud, other, self.PARAMS), expected)
        assert np.array_equal(grid_vote(dense, self.PARAMS, ONE_CELL, threads=2), expected)

    def test_block_memory_bounded(self, dense, monkeypatch):
        cloud = cloud_of(dense)
        assert len(cloud) <= neighbors.BLOCK_PAIRS
        seen = block_spy(monkeypatch)
        sparse_vote(cloud, build_index(cloud, self.PARAMS.cutoff), self.PARAMS)
        assert_blocks_bounded(seen)
        seen.clear()
        grid_vote(dense, self.PARAMS, ONE_CELL)
        assert_blocks_bounded(seen)
        # the one-cell index's single octant keeps every point as a
        # candidate, so its rows were cut into chunks: several blocks,
        # each against the whole cloud, together holding every receiver
        # once. A row holds every point, and stays within the budget
        # because this cloud is smaller than it.
        assert len(seen) > 1
        assert {cols for _, cols in seen} == {len(cloud)}
        assert sum(rows for rows, _ in seen) == len(cloud)

    def test_split_blocks_keep_octant_reach(self, dense):
        # every cell of the fixture is above the budget, so every block
        # is one octant's: its receivers share one half cell h, and its
        # candidates are exactly the points within `reach` half cells of
        # h, ascending
        cutoff = self.PARAMS.cutoff
        cloud = cloud_of(dense)
        index = build_index(cloud, cutoff)
        assert min(len(index.cell_points(s)) * len(index.cell_candidates(s, cutoff))
                   for s in range(index.cell_count)) > neighbors.BLOCK_PAIRS
        half = cutoff / 2
        reach = math.ceil(cutoff / half)
        halves = np.floor((dense - index.origin) / half).astype(np.int64)
        blocks = list(index.blocks(range(index.cell_count), cutoff))
        assert len(blocks) > index.cell_count
        for recv, cand in blocks:
            h = halves[recv[0]]
            assert (halves[recv] == h).all()
            near = (np.abs(halves - h) <= reach).all(axis=1)
            assert np.array_equal(cand, np.flatnonzero(near))
        received = np.concatenate([recv for recv, _ in blocks])
        assert np.array_equal(np.sort(received), np.arange(len(cloud)))

    @settings(max_examples=60, deadline=None)
    @given(
        lattice=st.lists(st.tuples(*[st.integers(-6, 12)] * 3), min_size=1, max_size=60),
        free=st.lists(st.tuples(*[st.floats(-1.5, 3.0, allow_nan=False)] * 3), max_size=12),
        duplicates=st.lists(st.integers(0, 71), max_size=8),
        scale=st.sampled_from([1.0, 0.5, 1.5]),
        block_pairs=st.integers(1, 64),
        threads=st.sampled_from([1, 2, 4]),
    )
    def test_split_blocks_match_oracle(self, lattice, free, duplicates, scale,
                                       block_pairs, threads):
        # Lattice points are multiples of 0.25 m: with cutoff 1 m they sit
        # exactly on half-cell boundaries of all three index cell sizes
        # (when no free point moves the origin), many pairs are exactly
        # one cutoff apart, and repeats are exact duplicates.
        points = np.array(lattice, dtype=float) * 0.25
        if free:
            points = np.concatenate([points, np.array(free)])
        points = np.concatenate([points, points[[d % len(points) for d in duplicates]]])
        cloud = cloud_of(points)
        params = VotingParams(sigma=0.5, cutoff=1.0)
        expected = double_loop_vote(points, params.sigma, params.cutoff)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(neighbors, "BLOCK_PAIRS", block_pairs)
            seen = block_spy(patch)
            via_grid = sparse_vote(cloud, build_index(cloud, scale), params, threads=threads)
            via_one_cell = grid_vote(points, params, ONE_CELL, threads=threads)
            assert_blocks_bounded(seen)
        assert np.array_equal(via_grid, expected)
        assert np.array_equal(via_one_cell, expected)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_empty_rows_match_oracle(self, threads, monkeypatch):
        # One block of 9 receivers. The first, middle and last have no
        # in-radius candidate but themselves, so their rows are empty;
        # points 2 and 5 are an exact duplicate pair.
        points = np.array([
            [0.0, 0.0, 0.0],
            [4.0, 4.0, 4.0], [4.3, 4.0, 4.0], [4.0, 4.4, 4.1],
            [8.0, 0.0, 0.0],
            [4.3, 4.0, 4.0], [4.2, 4.2, 3.8], [4.5, 4.3, 4.2],
            [0.0, 8.0, 8.0],
        ])
        params = VotingParams(sigma=0.5, cutoff=1.0)
        seen = block_spy(monkeypatch)
        got = grid_vote(points, params, ONE_CELL, threads=threads)
        assert seen == [(9, 9)]
        expected = double_loop_vote(points, params.sigma, params.cutoff)
        assert np.array_equal(got, expected)
        assert np.array_equal(got[[0, 4, 8]], np.tile([1.0, 0, 0, 1.0, 0, 1.0], (3, 1)))


class TestVoteCounters:
    """sparse_vote's counts against a per-block recount, at every thread count."""

    @pytest.mark.parametrize("scene", ["dense_with_duplicates", "thin_street"])
    def test_counters_equal_reference(self, scene, rng, monkeypatch):
        if scene == "thin_street":
            points = generate_scene(SceneSpec(density=40.0)).points
            params = VotingParams(sigma=0.3)
        else:
            # above the pair budget, so octant splits and row chunks, and
            # exact duplicates, whose d = 0 pairs are examined but not in radius
            points = rng.uniform(0, 1.5, size=(2700, 3))
            points = np.vstack([points, points[:300]])
            params = TestSplitBlocks.PARAMS
        cloud = cloud_of(points)
        index = build_index(cloud, params.cutoff)
        expected = count_vote_pairs(index, params.cutoff)
        assert 0 < expected["vote_pairs_in_radius"] < expected["vote_pairs_examined"]
        seen = block_spy(monkeypatch)
        for threads in (1, 2, 4):
            seen.clear()
            counts = {}
            sparse_vote(cloud, index, params, threads=threads, counts=counts)
            assert counts == expected
            assert counts["vote_blocks"] == len(seen)
            assert counts["vote_max_block_pairs"] == max(rows * cols for rows, cols in seen)
        if scene != "thin_street":
            assert counts["vote_blocks"] > index.cell_count   # dense cells were split


class TestOffsetBuffer:
    """The kernel's small ufunc buffer is scoped to its offset step."""

    def test_caller_bufsize_survives(self, rng):
        points = rng.uniform(0, 2, size=(300, 3))
        params = VotingParams(sigma=0.3)
        index = build_index(cloud_of(points), ONE_CELL)
        # receiver 0 and candidate 1 share the one block; their x offset overflows
        far = points.copy()
        far[0, 0], far[1, 0] = 1e308, -1e308
        saved = np.setbufsize(4096)
        try:
            for threads in (1, 2):
                sparse_vote(cloud_of(points), index, params, threads=threads)
                assert np.getbufsize() == 4096
            # np.seterr, not np.errstate: leaving an errstate block would
            # also reset the buffer size and hide a leak
            errors = np.seterr(over="raise")
            try:
                with pytest.raises(FloatingPointError):
                    sparse_vote(cloud_of(far), index, params, threads=1)
            finally:
                np.seterr(**errors)
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(saved)


# A first vote in a fresh interpreter: 6,000 points in the unit cube at a
# 0.35 cutoff, so most blocks are cut at BLOCK_PAIRS. The cloud is drawn
# straight into its array, and no array above glibc's initial 128 KiB mmap
# threshold is freed before the vote, so nothing has raised it yet.
FIRST_VOTE = """
import json, resource
import numpy as np
from curbmap import PointCloud, VotingParams, build_index, sparse_vote
cloud = PointCloud(np.random.default_rng(0).random((6000, 3)))
index = build_index(cloud, 0.35)
counts = {}
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
sparse_vote(cloud, index, VotingParams(sigma=0.13, cutoff=0.35), counts=counts)
counts["minor_faults"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps(counts))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="reads glibc's heap behaviour")
def test_first_vote_does_not_refault_each_block():
    """The vote's working set is a few MiB: one block and its in-radius
    pairs. If each block's memory went back to the kernel when freed,
    every block would fault it in again, hundreds of MiB over this vote."""
    src = str(Path(curbmap.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", FIRST_VOTE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts["vote_max_block_pairs"] > neighbors.BLOCK_PAIRS // 2
    faulted_mib = counts["minor_faults"] * resource.getpagesize() / 2 ** 20
    assert faulted_mib < 32, (counts["vote_blocks"], faulted_mib)


def plane_patch(rng, half=1.5, density=450.0, noise=0.01):
    xy = _sample_grid(rng, -half, half, -half, half, density, jitter=0.1)
    points = np.column_stack([xy, np.zeros(len(xy))])
    return points + rng.normal(0, noise, points.shape)


SALIENCY_CHANNELS = ("stick", "plate", "ball", "nx", "ny", "nz", "zsal")


def whole_array_channels(tensors):
    """The seven saliency channels from one decompose_batch call on every row."""
    lam, vecs = decompose_batch(tensors)
    stick, plate, ball = saliencies(lam)
    nx, ny, nz = vecs[:, 0, 0], vecs[:, 0, 1], vecs[:, 0, 2]
    return dict(zip(SALIENCY_CHANNELS, (stick, plate, ball, nx, ny, nz, np.abs(nz) * stick)))


class TestAttachSaliencies:
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
    def test_row_chunks_equal_whole_array(self, rng, rows, monkeypatch):
        # 307 rows is a multiple of none of the chunk sizes, so the last
        # chunk is short; repeated and diagonal rows give degenerate spectra
        points = rng.uniform(0, 1.5, size=(307, 3))
        points[:12] = points[12]
        tensors = grid_vote(points, VotingParams(sigma=0.4))
        tensors[40] = [1.0, 0.0, 0.0, 1.0, 0.0, 1.0]
        expected = whole_array_channels(tensors)
        monkeypatch.setattr(voting, "_DECOMPOSE_ROWS", rows)
        field = attach_saliencies(cloud_of(points), tensors)
        for name in SALIENCY_CHANNELS:
            got = field.channel(name)
            assert got.dtype == expected[name].dtype and got.tobytes() == expected[name].tobytes(), name

    def test_peak_memory_near_channels(self, rng):
        # the eigenvalues and eigenvectors live one chunk at a time, so the
        # peak is the seven channels plus a chunk's working arrays and the
        # new cloud's finiteness check: 1.09x the channels here (the
        # whole-array decomposition read 2.71x)
        n = 100_000
        tensors = np.array([3.0, 0.0, 0.0, 3.0, 0.0, 3.0]) + rng.uniform(-1, 1, size=(n, 6))
        cloud = cloud_of(np.zeros((n, 3)))
        tracemalloc.start()
        try:
            field = attach_saliencies(cloud, tensors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert set(SALIENCY_CHANNELS) <= set(field.channels)
        assert peak < 1.25 * 7 * n * 8

    def test_empty_tensors(self):
        field = attach_saliencies(cloud_of(np.zeros((0, 3))), np.zeros((0, 6)))
        assert all(field.channel(name).shape == (0,) for name in SALIENCY_CHANNELS)


class TestSaliencyField:
    @pytest.mark.parametrize("threads", [0, -4])
    def test_threads_below_one_rejected(self, rng, threads):
        with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
            saliency_field(cloud_of(rng.uniform(0, 1, (50, 3))), VotingParams(sigma=0.3),
                           threads=threads)

    def test_plane_recovery(self, rng):
        # plane points: strong stick, negligible plate, vertical normals.
        # ball stays comparable to stick under sparse ball voting (each
        # vote carries a full unit of isotropic mass), which is why the
        # ground filter thresholds the stick channel instead of asking
        # stick to beat ball.
        points = plane_patch(rng)
        field = saliency_field(cloud_of(points), VotingParams(sigma=0.4))
        interior = np.abs(points[:, :2]).max(axis=1) < 0.9
        stick = field.channel("stick")[interior]
        plate = field.channel("plate")[interior]
        nz = np.abs(field.channel("nz")[interior])
        good = (stick > plate) & (nz > np.cos(np.radians(5.0)))
        assert good.mean() >= 0.95
        assert (stick >= 0.5 * field.channel("stick").max()).mean() >= 0.95
        zsal = field.channel("zsal")[interior]
        assert np.allclose(zsal, nz * stick, atol=1e-12)

    def test_vertical_wall_normals(self, rng):
        yz = _sample_grid(rng, -1.5, 1.5, -1.5, 1.5, 450.0, jitter=0.1)
        points = np.column_stack([np.zeros(len(yz)), yz[:, 0], yz[:, 1]])
        points += rng.normal(0, 0.01, points.shape)
        field = saliency_field(cloud_of(points), VotingParams(sigma=0.4))
        interior = np.abs(points[:, 1:]).max(axis=1) < 0.9
        nx = np.abs(field.channel("nx")[interior])
        assert (nx > np.cos(np.radians(5.0))).mean() >= 0.95
        zsal = field.channel("zsal")[interior]
        stick = field.channel("stick")[interior]
        assert zsal.mean() < 0.05 * stick.mean()

    def test_step_junction_plate_stands_out(self, rng):
        # right-angle step: the junction carries the line feature
        low_xy = _sample_grid(rng, -2.0, 0.0, -2.0, 2.0, 500.0, jitter=0.1)
        high_xy = _sample_grid(rng, 0.0, 2.0, -2.0, 2.0, 500.0, jitter=0.1)
        face_yz = _sample_grid(rng, -2.0, 2.0, 0.0, 0.15, 500.0, jitter=0.1)
        points = np.concatenate([
            np.column_stack([low_xy, np.zeros(len(low_xy))]),
            np.column_stack([high_xy, np.full(len(high_xy), 0.15)]),
            np.column_stack([np.zeros(len(face_yz)), face_yz[:, 0], face_yz[:, 1]]),
        ])
        points += rng.normal(0, 0.004, points.shape)
        field = saliency_field(cloud_of(points), VotingParams(sigma=0.3))
        plate = field.channel("plate")
        near_junction = np.abs(points[:, 0]) <= 0.1
        interior = ((np.abs(points[:, 0]) > 0.75) & (np.abs(points[:, 0]) < 1.5)
                    & (np.abs(points[:, 1]) < 1.5))
        p90 = np.percentile(plate[interior], 90)
        assert (plate[near_junction] > p90).mean() >= 0.9

    def test_rotation_equivariance(self, rng):
        points = plane_patch(rng, half=1.0, density=350.0)
        params = VotingParams(sigma=0.35)
        rot = random_rotation(rng)
        base = saliency_field(cloud_of(points), params)
        turned = saliency_field(cloud_of(points @ rot.T), params)
        for name in ("stick", "plate", "ball"):
            assert np.abs(base.channel(name) - turned.channel(name)).max() < 1e-9
        normals = np.column_stack([base.channel(c) for c in ("nx", "ny", "nz")])
        normals_rot = np.column_stack([turned.channel(c) for c in ("nx", "ny", "nz")])
        alignment = np.abs(np.einsum("ni,ni->n", normals @ rot.T, normals_rot))
        assert (alignment > 1.0 - 1e-6).all()

    def test_translation_invariance(self, rng):
        points = plane_patch(rng, half=1.0, density=350.0)
        params = VotingParams(sigma=0.35)
        base = saliency_field(cloud_of(points), params)
        moved = saliency_field(cloud_of(points + np.array([10.5, -7.25, 3.125])), params)
        for name in ("stick", "plate", "ball", "nx", "ny", "nz", "zsal"):
            assert np.abs(base.channel(name) - moved.channel(name)).max() < 1e-9

    def test_truncation_error_bound(self, rng):
        # the default cutoff loses under 0.2% of each accumulated tensor
        points = rng.uniform(0, 1, size=(1200, 3))
        sigma = 0.5
        truncated = grid_vote(points, VotingParams(sigma=sigma))
        full = double_loop_vote(points, sigma, 10.0)
        weight = np.array([1, 2, 2, 1, 2, 1], dtype=float)  # six-component Frobenius
        diff = np.sqrt(((truncated - full) ** 2 * weight).sum(axis=1))
        norm = np.sqrt((full ** 2 * weight).sum(axis=1))
        assert (diff / norm).max() < 0.002

    def test_empty_cloud_rejected(self):
        with pytest.raises(EmptyInputError):
            saliency_field(cloud_of(np.zeros((0, 3))), VotingParams())

