"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines alongside the measured values.
"""

import os
import time

import numpy as np
import pytest

from curbmap import (ClassifyParams, PointCloud, SceneSpec, VotingParams,
                     build_height_grid, build_index, classify_cells, decay,
                     decompose_batch, generate_scene, ground_model, height_gate,
                     outlier_removal, plate_candidates, read_compact,
                     saliency_field, sparse_vote, truth_grid, write_compact)
from curbmap.scene import TRUTH_CANOPY, _sample_grid, curb_face_distance
from curbmap.semantic import SemanticGrid

from conftest import STREET_CURB
from oracles import (ball_vote_quadrature, double_loop_vote, frobenius,
                     jacobi_eigenvalues, matrices_to_sym, sym_to_matrices)


def report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"\n[ACCEPTANCE {num:02d}] {name}: {verdict}  ({detail})", flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


class TestCriterion1Eigendecomposition:
    def test_eigen_suite(self):
        rng = np.random.default_rng(101)
        n = 10_000
        q, _ = np.linalg.qr(rng.normal(size=(n, 3, 3)))
        d = rng.uniform(0.0, 3.0, size=(n, 3))
        mats = np.einsum("nij,nj,nkj->nik", q, d, q)
        t6 = matrices_to_sym(mats)

        t0 = time.perf_counter()
        lam, vecs = decompose_batch(t6)
        runtime = time.perf_counter() - t0

        recon = np.einsum("nk,nki,nkj->nij", lam, vecs, vecs)
        recon_err = float(np.sqrt(((recon - mats) ** 2).sum(axis=(1, 2))).max())
        ordered = bool((lam[:, 0] >= lam[:, 1]).all() and (lam[:, 1] >= lam[:, 2]).all())
        oracle_err = 0.0
        for k in range(n):
            ref = jacobi_eigenvalues(mats[k])
            oracle_err = max(oracle_err, float(np.abs(lam[k] - ref).max()))
        ok = recon_err <= 1e-9 and oracle_err <= 1e-9 and ordered and runtime < 1.0
        report(1, "eigendecomposition suite", ok,
               f"recon {recon_err:.2e}, jacobi {oracle_err:.2e}, "
               f"ordered {ordered}, decompose {runtime * 1e3:.1f} ms")


class TestCriterion2DecayIdentities:
    def test_decay(self):
        at_zero = decay(0.0, 0.7)
        errs = [abs(decay(s, s) - np.exp(-1.0)) for s in (0.1, 0.3, 1.0, 2.5)]
        sweep = decay(np.linspace(0.0, 4.0, 1000), 0.6)
        monotone = bool((np.diff(sweep) < 0.0).all())
        ok = at_zero == 1.0 and max(errs) <= 1e-12 and monotone
        report(2, "decay identities", ok,
               f"decay(0)={at_zero}, |decay(s,s)-1/e| max {max(errs):.2e}, "
               f"monotone over 1000-point sweep: {monotone}")


class TestCriterion3BallVoteOracle:
    def test_quadrature_proportionality(self):
        rng = np.random.default_rng(103)
        worst = 0.0
        for _ in range(100):
            voter = rng.uniform(-2, 2, size=3)
            offset = rng.normal(size=3)
            offset *= rng.uniform(0.1, 1.2) / np.linalg.norm(offset)
            receiver = voter + offset
            sigma = rng.uniform(0.2, 0.8)
            # the vote the production kernel gives the receiver, less its
            # unit ball; the cutoff exceeds the 1.2 m maximum offset
            cloud = PointCloud(np.array([receiver, voter]))
            params = VotingParams(sigma=sigma, cutoff=2.0)
            t6 = sparse_vote(cloud, build_index(cloud, params.cutoff), params)
            closed = sym_to_matrices(t6[:1])[0] - np.eye(3)
            integral = ball_vote_quadrature(receiver, voter, sigma)
            diff = closed / frobenius(closed) - integral / frobenius(integral)
            worst = max(worst, frobenius(diff))
        ok = worst < 0.02
        report(3, "ball-vote quadrature oracle", ok,
               f"max normalized Frobenius gap over 100 pairs: {worst:.4f}")


class TestCriterion4VotingOracleEquivalence:
    def test_grid_equals_double_loop(self):
        rng = np.random.default_rng(104)
        t0 = time.perf_counter()
        points = rng.uniform(0, 4, size=(2000, 3))
        cloud = PointCloud(points)
        params = VotingParams(sigma=0.4)
        via_grid = sparse_vote(cloud, build_index(cloud, params.cutoff), params)
        oracle = double_loop_vote(points, params.sigma, params.cutoff)
        runtime = time.perf_counter() - t0
        exact = bool(np.array_equal(via_grid, oracle))
        ok = exact and runtime < 30.0
        report(4, "voting oracle equivalence", ok,
               f"bit-exact {exact} on 2000 points, {runtime:.2f} s")


class TestCriterion5PlaneRecovery:
    def test_plane_recovery(self):
        rng = np.random.default_rng(105)
        radius = 2.0
        xy = rng.uniform(-radius, radius, size=(40_000, 2))
        xy = xy[(xy ** 2).sum(axis=1) <= radius * radius][:10_000]
        points = np.column_stack([xy, np.zeros(len(xy))])
        points += rng.normal(0, 0.01, points.shape)
        field = saliency_field(PointCloud(points), VotingParams(sigma=0.5))
        interior = (xy ** 2).sum(axis=1) <= (radius - 0.5) ** 2
        stick = field.channel("stick")[interior]
        plate = field.channel("plate")[interior]
        ball = field.channel("ball")[interior]
        vertical = np.abs(field.channel("nz")[interior]) >= np.cos(np.radians(5.0))
        dominant = (stick > plate) & (stick > ball)
        frac = float((dominant & vertical).mean())
        frac_no_ball = float(((stick > plate) & vertical).mean())
        # Sparse ball voting cannot satisfy the ball clause on a plane:
        # each vote carries one unit of isotropic mass, so the ball
        # saliency (smallest eigenvalue) equals the stick saliency plus
        # the retained unit encoding: s1 - s3 = -1 - 2*sum(w*uz^2) < 0
        # for every point. The stick-over-plate clause and the normals
        # hold with large margin; see the decisions ledger.
        report(5, "plane recovery", frac >= 0.95,
               f"stick>plate and stick>ball and |angle|<=5deg: {frac:.3f} "
               f"(without the ball clause: {frac_no_ball:.3f}; "
               f"stick>ball is structurally impossible for sparse ball voting)")


class TestCriterion6CurbStepScene:
    def test_junction_plate_percentile(self):
        rng = np.random.default_rng(106)
        density = 600.0
        low = _sample_grid(rng, -3.0, 0.0, -3.0, 3.0, density, jitter=0.1)
        high = _sample_grid(rng, 0.0, 3.0, -3.0, 3.0, density, jitter=0.1)
        face = _sample_grid(rng, -3.0, 3.0, 0.0, 0.15, density, jitter=0.1)
        points = np.concatenate([
            np.column_stack([low, np.zeros(len(low))]),
            np.column_stack([high, np.full(len(high), 0.15)]),
            np.column_stack([np.zeros(len(face)), face[:, 0], face[:, 1]]),
        ]) + rng.normal(0, 0.004, (len(low) + len(high) + len(face), 3))
        field = saliency_field(PointCloud(points), VotingParams(sigma=0.3), threads=2)
        plate = field.channel("plate")
        pts = field.points
        junction = np.abs(pts[:, 0]) <= 0.1
        interior = ((np.abs(pts[:, 0]) > 0.75) & (np.abs(pts[:, 0]) < 2.5)
                    & (np.abs(pts[:, 1]) < 2.5) & (pts[:, 2] < 0.3))
        p90 = float(np.percentile(plate[interior], 90))
        frac = float((plate[junction] > p90).mean())
        report(6, "curb-step line feature", frac >= 0.9,
               f"{frac:.3f} of junction points above interior p90 ({p90:.3f})")


@pytest.fixture(scope="module")
def street_detection(street_field, street_dem):
    ground_idx, dem = street_dem
    stage1 = plate_candidates(street_field, STREET_CURB)
    stage2 = height_gate(street_field, stage1, dem, STREET_CURB)
    stage3 = outlier_removal(street_field, stage2, STREET_CURB.outlier_radius,
                             STREET_CURB.outlier_min_neighbors)
    return stage1, stage2, stage3


class TestCriterion7StreetScene:
    def test_street_detection(self, street_spec, street_field, street_dem,
                              street_detection):
        ground_idx, dem = street_dem
        _, gated, detected_idx = street_detection
        points = street_field.points
        truth = street_field.channel("truth")

        band = curb_face_distance(street_spec, points) <= 0.1
        detected = np.zeros(len(points), dtype=bool)
        detected[detected_idx] = True
        tp = int((detected & band).sum())
        recall = tp / int(band.sum())
        precision = tp / max(int(detected.sum()), 1)

        canopy_total = int((truth == TRUTH_CANOPY).sum())
        canopy_through_gate = int((truth[gated] == TRUTH_CANOPY).sum())

        grid = classify_cells(street_field, dem, detected_idx, ground_idx,
                              ClassifyParams())
        reference = truth_grid(street_field, street_spec, ClassifyParams())
        accuracy = float((grid.labels == reference.labels).mean())

        ok = (recall >= 0.9 and precision >= 0.8 and canopy_through_gate == 0
              and accuracy >= 0.9)
        report(7, "end-to-end synthetic street", ok,
               f"{len(points)} pts, recall {recall:.3f}, precision {precision:.3f}, "
               f"canopy past gate {canopy_through_gate}/{canopy_total}, "
               f"grid accuracy {accuracy:.3f}")


class TestCriterion8DemAccuracy:
    def test_graded_ground_with_canopy(self):
        spec = SceneSpec(extent=20.0, road_width=19.0, curb_height=1e-4, grade=0.02,
                         wall_x=(), canopy_blobs=((-5.0, 0.0, 2.0), (4.0, 3.0, 1.5),
                                                  (0.0, -6.0, 1.2)),
                         canopy_thickness=0.05, density=60.0, edge_taper=0.0, seed=108)
        cloud = generate_scene(spec)
        field = saliency_field(cloud, VotingParams(sigma=0.3), threads=2)
        from curbmap import GroundParams

        params = GroundParams()
        candidates, refined = ground_model(field, params)
        canopy_candidates = int(
            (field.channel("truth")[candidates] == TRUTH_CANOPY).sum())

        rows, cols = np.nonzero(refined.valid)
        centers = np.column_stack([
            refined.origin[0] + (cols + 0.5) * refined.cell,
            refined.origin[1] + (rows + 0.5) * refined.cell,
        ])
        away_from_step = np.abs(np.abs(centers[:, 0]) - spec.road_width / 2.0) > 1.0
        truth_heights = 0.02 * centers[:, 0]
        errors = np.abs(refined.heights[rows, cols] - truth_heights)[away_from_step]

        # non-vacuity: the single-stage grid must actually be polluted
        naive = build_height_grid(field.points[candidates], params.refined_cell,
                                  min_samples=params.min_samples)
        nrows, ncols = np.nonzero(naive.valid)
        ncenters_x = naive.origin[0] + (ncols + 0.5) * naive.cell
        naive_errors = np.abs(naive.heights[nrows, ncols] - 0.02 * ncenters_x)
        polluted = int((naive_errors > 0.05).sum())

        ok = (canopy_candidates > 0 and polluted > 0 and len(errors) > 200
              and float(errors.max()) <= 0.05)
        report(8, "DEM accuracy on graded ground", ok,
               f"canopy ground-candidates {canopy_candidates}, "
               f"naive polluted cells {polluted}, refined valid cells {len(errors)}, "
               f"max error {errors.max():.3f} m")


class TestCriterion9PerformanceAnchor:
    def test_voting_performance_and_scaling(self, street_cloud):
        params = VotingParams(sigma=0.3)
        index = build_index(street_cloud, params.cutoff)
        index.candidate_table(params.cutoff)

        t0 = time.perf_counter()
        single = sparse_vote(street_cloud, index, params, threads=1)
        decompose_batch(single)
        t_single = time.perf_counter() - t0

        t0 = time.perf_counter()
        quad = sparse_vote(street_cloud, index, params, threads=4)
        decompose_batch(quad)
        t_quad = time.perf_counter() - t0

        identical = bool(np.array_equal(single, quad))
        speedup = t_single / t_quad
        ok = t_single < 10.0 and speedup >= 2.0 and identical
        report(9, "performance anchor", ok,
               f"{len(street_cloud)} pts: single-thread {t_single:.2f} s, "
               f"4 threads {t_quad:.2f} s, speedup {speedup:.2f}x "
               f"(host has {os.cpu_count()} cores), bit-identical {identical}")


class TestCriterion10StorageAnchor:
    def test_compact_grid_storage(self, street_field, street_dem, street_detection):
        ground_idx, dem = street_dem
        _, _, detected_idx = street_detection
        grid = classify_cells(street_field, dem, detected_idx, ground_idx,
                              ClassifyParams())
        blob = write_compact(grid)
        size_ok = len(blob) == grid.labels.size + 36 and len(blob) <= 30_000

        rng = np.random.default_rng(110)
        trips_ok = True
        for _ in range(1000):
            shape = (int(rng.integers(1, 40)), int(rng.integers(1, 40)))
            labels = rng.integers(0, 5, size=shape).astype(np.uint8)
            grid_k = SemanticGrid((float(rng.normal()), float(rng.normal())), 0.12, labels)
            back = read_compact(write_compact(grid_k))
            if not np.array_equal(back.labels, labels):
                trips_ok = False
                break
        ok = size_ok and trips_ok
        report(10, "storage anchor", ok,
               f"street grid {grid.shape[0]}x{grid.shape[1]} -> {len(blob)} bytes "
               f"(<= 30 kB: {len(blob) <= 30000}), 1000 round trips ok: {trips_ok}")
