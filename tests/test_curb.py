import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curbmap import neighbors
from curbmap import (ChannelMissingError, CurbParams, GroundParams, PointCloud,
                     SceneSpec, VotingParams, build_height_grid, detect_curbs,
                     generate_scene, ground_model, height_gate, outlier_removal,
                     plate_candidates, refine_dem, saliency_field)
from curbmap.scene import _sample_grid, curb_face_distance

from oracles import reference_outlier_removal


def flat_dem(rng, z=0.0, half=10.0):
    side = np.arange(-half, half, 0.25)
    gx, gy = np.meshgrid(side, side)
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, float(z))])
    pts += rng.normal(0, 0.005, pts.shape)
    return refine_dem(build_height_grid(pts, 0.5))


def scene_field(spec, sigma=0.3):
    field = saliency_field(generate_scene(spec), VotingParams(sigma=sigma), threads=2)
    _, dem = ground_model(field, GroundParams())
    return field, dem


STEP = SceneSpec(extent=8.0, road_width=4.0, wall_x=(), canopy_blobs=(),
                 density=400.0, seed=11)


@pytest.fixture(scope="module")
def step_scene():
    return STEP, *scene_field(STEP)


class TestCurbParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CurbParams(plate_threshold=0.0)
        with pytest.raises(ValueError):
            CurbParams(outlier_min_neighbors=0)


class TestPlateCandidates:
    def test_flat_plane_interior_below_threshold(self, rng):
        xy = _sample_grid(rng, -2, 2, -2, 2, 400.0, jitter=0.1)
        pts = np.column_stack([xy, np.zeros(len(xy))]) + rng.normal(0, 0.004, (len(xy), 3))
        field = saliency_field(PointCloud(pts), VotingParams(sigma=0.3))
        chosen = np.zeros(len(field), dtype=bool)
        chosen[plate_candidates(field, CurbParams())] = True
        interior = np.abs(pts[:, :2]).max(axis=1) < 1.2
        assert chosen[interior].mean() < 0.05

    def test_curb_junction_above_threshold(self, step_scene):
        spec, field, _ = step_scene
        chosen = np.zeros(len(field), dtype=bool)
        chosen[plate_candidates(field, CurbParams())] = True
        near = ((curb_face_distance(spec, field.points) <= 0.05)
                & (np.abs(field.points[:, 1]) < 2.0))
        assert chosen[near].mean() >= 0.9

    def test_empty_cloud(self):
        empty = PointCloud(np.zeros((0, 3)), {"plate": np.zeros(0)})
        assert len(plate_candidates(empty, CurbParams())) == 0

    def test_missing_channel(self):
        with pytest.raises(ChannelMissingError):
            plate_candidates(PointCloud(np.zeros((1, 3))), CurbParams())

    @pytest.mark.parametrize("count", [1, 40])
    def test_no_plate_response_yields_none(self, count):
        # one point, or copies of it: every plate saliency is 0, and a
        # threshold relative to that maximum must not keep them all
        field = saliency_field(PointCloud(np.tile([[1.0, 2.0, 3.0]], (count, 1))),
                               VotingParams(sigma=0.3))
        assert not field.channel("plate").any()
        assert len(plate_candidates(field, CurbParams())) == 0

    def test_raising_threshold_never_adds(self, step_scene):
        _, field, _ = step_scene
        loose = set(plate_candidates(field, CurbParams(plate_threshold=0.2)).tolist())
        tight = set(plate_candidates(field, CurbParams(plate_threshold=0.5)).tolist())
        assert tight <= loose


class TestHeightGate:
    def test_curb_height_kept_canopy_dropped(self, rng):
        dem = flat_dem(rng)
        cloud = PointCloud(np.array([[0.0, 0.0, 0.15], [1.0, 1.0, 2.0]]))
        kept = height_gate(cloud, np.array([0, 1]), dem, CurbParams())
        assert kept.tolist() == [0]

    def test_below_floor_dropped(self, rng):
        dem = flat_dem(rng)
        cloud = PointCloud(np.array([[0.0, 0.0, -0.5]]))
        assert len(height_gate(cloud, np.array([0]), dem, CurbParams())) == 0

    def test_unknown_dem_cell_dropped(self, rng):
        dem = flat_dem(rng, half=2.0)
        cloud = PointCloud(np.array([[40.0, 40.0, 0.1]]))
        assert len(height_gate(cloud, np.array([0]), dem, CurbParams())) == 0

    def test_raising_ceiling_never_removes(self, rng):
        dem = flat_dem(rng)
        points = np.column_stack([
            rng.uniform(-5, 5, 200), rng.uniform(-5, 5, 200), rng.uniform(-0.5, 3, 200)])
        cloud = PointCloud(points)
        low = height_gate(cloud, np.arange(200), dem, CurbParams(height_ceiling=0.5))
        high = height_gate(cloud, np.arange(200), dem, CurbParams(height_ceiling=1.5))
        assert set(low.tolist()) <= set(high.tolist())


class TestOutlierRemoval:
    def test_isolated_candidate_removed(self):
        cloud = PointCloud(np.array([[0, 0, 0], [5, 5, 5]], dtype=float))
        kept = outlier_removal(cloud, np.array([0, 1]), 0.3, 1)
        assert len(kept) == 0

    def test_dense_segment_interior_kept(self, rng):
        line = np.column_stack([np.linspace(0, 2, 50), np.zeros(50), np.zeros(50)])
        cloud = PointCloud(line + rng.normal(0, 0.01, line.shape))
        kept = outlier_removal(cloud, np.arange(50), 0.3, 3)
        assert set(range(5, 45)) <= set(kept.tolist())

    def test_exact_duplicates_count(self):
        cloud = PointCloud(np.tile(np.array([[1.0, 2.0, 3.0]]), (4, 1)))
        kept = outlier_removal(cloud, np.arange(4), 0.3, 3)
        assert kept.tolist() == [0, 1, 2, 3]

    def test_empty_candidates(self):
        cloud = PointCloud(np.zeros((3, 3)))
        assert len(outlier_removal(cloud, np.zeros(0, dtype=int), 0.3, 3)) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        lattice=st.lists(st.tuples(*[st.integers(-4, 8)] * 3), min_size=1, max_size=60),
        free=st.lists(st.tuples(*[st.floats(-1.0, 2.0, allow_nan=False)] * 3), max_size=12),
        duplicates=st.lists(st.integers(0, 71), max_size=8),
        stride=st.integers(1, 3),
        min_neighbors=st.integers(1, 8),
        block_pairs=st.integers(1, 64),
    )
    def test_batched_matches_reference(self, lattice, free, duplicates, stride,
                                       min_neighbors, block_pairs):
        # Lattice points are multiples of the 0.25 m radius: axis neighbours
        # lie exactly one radius apart, on index cell boundaries when no
        # free point moves the origin, and repeats are exact duplicates.
        # Small block bounds make the count split cells by octant and cut
        # row chunks.
        radius = 0.25
        points = np.array(lattice, dtype=float) * radius
        if free:
            points = np.concatenate([points, np.array(free)])
        points = np.concatenate([points, points[[d % len(points) for d in duplicates]]])
        cloud = PointCloud(points)
        candidates = np.arange(0, len(points), stride)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(neighbors, "BLOCK_PAIRS", block_pairs)
            kept = outlier_removal(cloud, candidates, radius, min_neighbors)
        expected = reference_outlier_removal(cloud, candidates, radius, min_neighbors)
        assert np.array_equal(kept, expected)

    def test_count_blocks_bounded(self, monkeypatch):
        seen = []
        kernel = neighbors._count_block

        def spy(qp, cp, r2):
            seen.append((qp.shape[1], cp.shape[1]))
            return kernel(qp, cp, r2)

        monkeypatch.setattr(neighbors, "_count_block", spy)
        cloud = PointCloud(np.tile(np.array([[1.0, 2.0, 3.0]]), (3000, 1)))
        kept = outlier_removal(cloud, np.arange(3000), 0.3, 8)
        assert kept.tolist() == list(range(3000))
        assert len(seen) > 1 and sum(rows for rows, _ in seen) == 3000
        for rows, cols in seen:
            assert rows * cols <= neighbors.BLOCK_PAIRS or rows == 1


def band_fraction(xs, centers, width=0.3):
    """Largest fraction of xs falling within one +-width band."""
    best = 0.0
    for c in centers:
        best = max(best, float((np.abs(xs - c) < width).mean()))
    return best


class TestDetectCurbs:
    def test_curbless_scene_interior_stays_empty(self):
        # the per-cloud-relative plate threshold always admits the top
        # of the noise somewhere, and the coverage-boundary ring is
        # where it lands on a featureless world; away from the ring the
        # detector must find essentially nothing. road_width just under
        # the extent makes the ground one continuous surface.
        spec = SceneSpec(extent=8.0, road_width=7.99, curb_height=1e-4, wall_x=(),
                         canopy_blobs=(), density=400.0, seed=11)
        field, dem = scene_field(spec)
        detection = detect_curbs(field, dem, CurbParams())
        rim = spec.extent / 2.0 - np.abs(field.points[:, :2]).max(axis=1)
        interior_detections = (rim[detection.indices] > spec.edge_taper).sum()
        interior_points = (rim > spec.edge_taper).sum()
        assert interior_detections < 0.005 * interior_points

    def test_step_scene_finds_junction(self, step_scene):
        spec, field, dem = step_scene
        detection = detect_curbs(field, dem, CurbParams())
        assert len(detection.indices) > 200
        assert ((detection.confidence >= 0) & (detection.confidence <= 1)).all()
        face_dist = curb_face_distance(spec, field.points[detection.indices])
        assert np.median(face_dist) < 0.1
        xs = field.points[detection.indices, 0]
        in_bands = (np.abs(xs - 2.0) < 0.3) | (np.abs(xs + 2.0) < 0.3)
        assert in_bands.mean() > 0.6

    def test_output_subset_of_plate_candidates(self, step_scene):
        _, field, dem = step_scene
        params = CurbParams()
        detection = detect_curbs(field, dem, params)
        assert set(detection.indices.tolist()) <= set(
            plate_candidates(field, params).tolist())

    def test_deterministic_across_runs(self, step_scene):
        _, field, dem = step_scene
        first = detect_curbs(field, dem, CurbParams())
        second = detect_curbs(field, dem, CurbParams())
        assert np.array_equal(first.indices, second.indices)
        assert np.array_equal(first.confidence, second.confidence)

    def test_two_parallel_curbs_form_two_clusters(self):
        spec = SceneSpec(extent=12.0, road_width=6.0, wall_x=(), canopy_blobs=(),
                         density=350.0, seed=5)
        field, dem = scene_field(spec)
        detection = detect_curbs(field, dem, CurbParams(plate_threshold=0.45,
                                                        outlier_min_neighbors=6))
        points = field.points[detection.indices]
        sizes_and_medians = _connected_clusters(points, link=1.0)
        major = [(size, mx) for size, mx in sizes_and_medians if size >= 50]
        assert len(major) == 2
        assert sorted(round(mx) for _, mx in major) == [-3, 3]
        assert sum(size for size, _ in major) >= 0.9 * len(points)


class TestRigidMotionRobustness:
    def test_street_metrics_stable_under_yaw(self, street_spec, street_cloud,
                                             street_field, street_dem):
        from conftest import STREET_CURB
        from curbmap import PointCloud as PC

        def metrics(field, dem_pair, original_points):
            ground_idx, dem = dem_pair
            detection = detect_curbs(field, dem, STREET_CURB)
            band = curb_face_distance(street_spec, original_points) <= 0.1
            detected = np.zeros(len(field), dtype=bool)
            detected[detection.indices] = True
            tp = (detected & band).sum()
            return tp / band.sum(), tp / max(detected.sum(), 1)

        base_recall, base_precision = metrics(street_field, street_dem,
                                              street_cloud.points)
        yaw = np.radians(30.0)
        rot = np.array([[np.cos(yaw), -np.sin(yaw), 0.0],
                        [np.sin(yaw), np.cos(yaw), 0.0],
                        [0.0, 0.0, 1.0]])
        turned_cloud = PC(street_cloud.points @ rot.T, dict(street_cloud.channels))
        turned_field = saliency_field(turned_cloud, VotingParams(sigma=0.3), threads=2)
        turned_recall, turned_precision = metrics(turned_field,
                                                  ground_model(turned_field, GroundParams()),
                                                  street_cloud.points)
        assert abs(turned_recall - base_recall) < 0.02
        assert abs(turned_precision - base_precision) < 0.02


def _connected_clusters(points, link=1.0):
    """(size, median x) of connected components under xy distance `link`."""
    n = len(points)
    parent = np.arange(n)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    d2 = ((points[:, None, :2] - points[None, :, :2]) ** 2).sum(-1)
    for a, b in zip(*np.nonzero(d2 <= link * link)):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for k in range(n):
        groups.setdefault(find(k), []).append(k)
    return sorted(((len(v), float(np.median(points[v, 0]))) for v in groups.values()),
                  reverse=True)
