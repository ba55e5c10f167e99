import dataclasses
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from curbmap import (CropBox, CurbmapError, EmptyInputError, PipelineConfig, PipelineError, PointCloud,
                     SceneSpec, SemanticLabel, detect_curbs, generate_scene, read_compact,
                     run_pipeline, saliency_field, write_cloud)
from curbmap import cli, curb, pipeline, semantic, voting
from curbmap.cli import main
from curbmap.pipeline import STAGES
from curbmap.scene import curb_face_distance

from conftest import STREET_CURB

SMALL_SPEC = SceneSpec(extent=10.0, road_width=5.0, wall_x=(4.0,),
                       canopy_blobs=((-3.5, 0.0, 1.0),), density=150.0, seed=4)


@pytest.fixture(scope="module")
def small_cloud():
    return generate_scene(SMALL_SPEC)


def _raise(*args, **kwargs):
    raise RuntimeError("injected")


# the callee that test_failure_names_its_stage makes raise for each stage
# that no input makes fail
FAILING_CALLEES = {"vote": (voting, "sparse_vote"), "decompose": (voting, "attach_saliencies"),
                   "curb": (curb, "detect_curbs"), "grid": (semantic, "classify_cells")}


def config_for(tmp_path, **overrides):
    base = PipelineConfig(
        out_cloud=str(tmp_path / "out.xyz"),
        out_dem=str(tmp_path / "out.asc"),
        out_raster=str(tmp_path / "out.ppm"),
        out_grid=str(tmp_path / "out.sgrd"),
        threads=2,
    )
    return dataclasses.replace(base, **overrides)


class TestRunPipeline:
    def test_end_to_end_outputs(self, tmp_path, small_cloud):
        config = config_for(tmp_path)
        result = run_pipeline(config, cloud=small_cloud)
        assert len(result.written) == 4
        for path in result.written:
            assert Path(path).stat().st_size > 0
        assert result.grid.labels.size > 0
        detected = result.detection.indices
        assert len(detected) > 50
        face_dist = curb_face_distance(SMALL_SPEC, result.cloud.points[detected])
        assert np.median(face_dist) < 0.15

    def test_timing_report_structure(self, tmp_path, small_cloud):
        result = run_pipeline(config_for(tmp_path), cloud=small_cloud)
        timing = result.timing
        for stage in ("parse", "crop", "index", "vote", "decompose", "dem", "curb",
                      "grid", "export"):
            assert timing.seconds[stage] >= 0.0
        data = json.loads(timing.to_json())
        assert data["seconds"]["vote"] == timing.seconds["vote"]
        assert data["counts"]["curb_points"] == timing.counts["curb_points"]
        # the in-radius pairs are among those examined, and so is the largest block
        counts = timing.counts
        assert (counts["vote_pairs_examined"] > counts["vote_pairs_in_radius"] > 0
                and counts["vote_pairs_examined"] >= counts["vote_max_block_pairs"] > 0
                and counts["vote_blocks"] >= 1)
        # filter stages never gain points
        assert (timing.counts["curb_plate_candidates"]
                >= timing.counts["curb_height_gated"]
                >= timing.counts["curb_points"])
        assert timing.total <= sum(timing.seconds.values()) * 1.0001

    def test_crop_applied(self, tmp_path, small_cloud):
        config = config_for(tmp_path, crop=CropBox((-2, -2, -1), (2, 2, 1)),
                            out_cloud="", out_dem="", out_raster="")
        result = run_pipeline(config, cloud=small_cloud)
        assert np.abs(result.cloud.points[:, :2]).max() <= 2.0

    def test_export_failure_mid_stream_removes_cloud(self, tmp_path, small_cloud,
                                                     monkeypatch):
        out = tmp_path / "out.xyz"

        def failing_chunks(cloud, fmt):
            yield b"1.0 2.0 3.0\n"
            assert out.exists()   # the partial file is there when the writer fails
            raise OSError("device full")

        monkeypatch.setattr(pipeline, "cloud_chunks", failing_chunks)
        with pytest.raises(PipelineError) as err:
            run_pipeline(config_for(tmp_path), cloud=small_cloud)
        assert err.value.stage == "export"
        assert "device full" in str(err.value)
        assert not out.exists()

    @pytest.mark.parametrize("stage", STAGES)
    def test_failure_names_its_stage(self, tmp_path, small_cloud, monkeypatch, stage):
        cloud, overrides = small_cloud, {}
        if stage == "parse":
            (tmp_path / "bad.xyz").write_bytes(b"1.0 2.0 oops\n")
            cloud, overrides = None, {"input_path": str(tmp_path / "bad.xyz"),
                                      "input_format": "xyz"}
        elif stage == "crop":   # no point left
            overrides = {"crop": CropBox((50, 50, 50), (60, 60, 60))}
        elif stage == "index":  # far in z only: the xy label grid is small, so crop passes it on
            cloud = PointCloud(np.vstack([np.random.default_rng(5).uniform(0, 2, (200, 3)),
                                          [1.0, 1.0, 1e19]]))
        elif stage == "dem":    # one point is no ground
            cloud = PointCloud(np.array([[1.0, 2.0, 3.0]]))
        elif stage == "export":  # the cloud is written, then the DEM's directory is missing
            overrides = {"out_dem": str(tmp_path / "no_dir" / "x.asc")}
        else:
            monkeypatch.setattr(*FAILING_CALLEES[stage], _raise)
        reports = []
        new_report = pipeline.TimingReport
        monkeypatch.setattr(pipeline, "TimingReport",
                            lambda: reports.append(new_report()) or reports[-1])
        config = config_for(tmp_path, **overrides)
        with pytest.raises(PipelineError) as err:
            run_pipeline(config, cloud=cloud)
        assert err.value.stage == stage and f"stage '{stage}' failed" in str(err.value)
        assert pickle.loads(pickle.dumps(err.value)).stage == stage
        earlier = list(STAGES[:STAGES.index(stage)])
        assert list(reports[0].seconds) == earlier == list(reports[0].stage_peak_rss_mb)
        outputs = (config.out_cloud, config.out_dem, config.out_raster, config.out_grid)
        assert not any(Path(path).exists() for path in outputs)

    @pytest.mark.parametrize("fmt", ["pcd", "xyz"])
    def test_streamed_cloud_equals_write_cloud(self, tmp_path, small_cloud, fmt):
        config = config_for(tmp_path, input_format=fmt, out_dem="", out_raster="",
                            out_grid="")
        result = run_pipeline(config, cloud=small_cloud)
        curb_conf = np.zeros(len(result.cloud))
        curb_conf[result.detection.indices] = result.detection.confidence
        expected = write_cloud(result.cloud.with_channels(curb_conf=curb_conf), fmt)
        assert len(expected) > 10 * 512 * 20   # many row chunks
        assert (tmp_path / "out.xyz").read_bytes() == expected

    def test_stage_peak_rss(self, tmp_path, small_cloud):
        timing = run_pipeline(config_for(tmp_path), cloud=small_cloud).timing
        peaks = timing.stage_peak_rss_mb
        assert list(peaks) == list(STAGES)
        values = list(peaks.values())
        assert values == sorted(values) and 0.0 < values[-1] <= timing.peak_rss_mb
        data = json.loads(timing.to_json())
        assert data["stage_peak_rss_mb"] == peaks
        assert list(data["stage_peak_rss_mb"]) == list(STAGES)
        assert data["peak_rss_mb"] == timing.peak_rss_mb

    def test_thread_count_invariance(self, tmp_path, small_cloud):
        grids = {}
        for threads in (1, 8):
            config = config_for(tmp_path, out_cloud="", out_dem="", out_raster="",
                                out_grid=str(tmp_path / f"grid{threads}.sgrd"),
                                threads=threads)
            run_pipeline(config, cloud=small_cloud)
            grids[threads] = (tmp_path / f"grid{threads}.sgrd").read_bytes()
        assert grids[1] == grids[8]

    def test_matches_library_path(self, tmp_path, small_cloud):
        config = config_for(tmp_path, out_cloud="", out_dem="", out_raster="", out_grid="")
        result = run_pipeline(config, cloud=small_cloud)
        field = saliency_field(small_cloud, config.voting)
        for name in ("stick", "plate", "ball", "nx", "ny", "nz", "zsal"):
            assert np.array_equal(result.cloud.channel(name), field.channel(name)), name
        detection = detect_curbs(field, result.dem, config.curb)
        assert result.detection.indices.tobytes() == detection.indices.tobytes()
        assert result.detection.confidence.tobytes() == detection.confidence.tobytes()
        counts = result.timing.counts
        assert detection.plate_candidates == counts["curb_plate_candidates"]
        assert detection.height_gated == counts["curb_height_gated"]
        assert len(detection.indices) == counts["curb_points"]

    @pytest.mark.parametrize("points", [
        np.column_stack([np.zeros(2000),
                         np.random.default_rng(3).uniform((-5.0, 0.0), (5.0, 2.0), (2000, 2))]),
    ], ids=["vertical_wall"])
    def test_degenerate_cloud_names_dem_stage(self, tmp_path, points):
        with pytest.raises(PipelineError) as err:
            run_pipeline(config_for(tmp_path), cloud=PointCloud(points))
        assert err.value.stage == "dem"
        assert not list(tmp_path.iterdir())

    def test_duplicate_points_detect_no_curb(self, tmp_path):
        # copies of one point have no plate response: no point is a curb
        result = run_pipeline(config_for(tmp_path),
                              cloud=PointCloud(np.tile([[1.0, 2.0, 3.0]], (40, 1))))
        counts = result.timing.counts
        assert (counts["curb_plate_candidates"], counts["curb_points"]) == (0, 0)
        assert len(result.detection.indices) == len(result.detection.confidence) == 0
        assert counts["grid_road_curb"] == 0
        assert counts["grid_cells"] == 1

    def test_far_point_grid_refused(self, tmp_path, street_cloud, monkeypatch):
        # one lone point 10 km off the street: a 0.12 m label grid over
        # both would need about 7e9 cells, refused before the vote
        votes = []
        monkeypatch.setattr(voting, "sparse_vote", lambda *args, **kw: votes.append(args))
        points = np.vstack([street_cloud.points, [[1e4, 1e4, 0.0]]])
        with pytest.raises(PipelineError) as err:
            run_pipeline(config_for(tmp_path), cloud=PointCloud(points))
        assert err.value.stage == "crop"
        assert not votes
        assert isinstance(err.value.cause, CurbmapError)
        assert "at cell size 0.12 m" in str(err.value)
        assert not list(tmp_path.iterdir())

    def test_reads_cloud_from_disk(self, tmp_path, small_cloud):
        path = tmp_path / "scene.xyz"
        path.write_bytes(write_cloud(small_cloud, "xyz"))
        config = config_for(tmp_path, input_path=str(path), out_cloud="",
                            out_dem="", out_raster="")
        result = run_pipeline(config)
        assert result.timing.counts["parse_points"] == len(small_cloud)


def _plane(half=1.0, spacing=0.05):
    side = np.arange(-half, half + spacing / 2, spacing)
    gx, gy = np.meshgrid(side, side)
    return np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])


_PLANE = _plane()
_LINE = np.linspace(0.0, 3.0, 300)
_NOISE = np.random.default_rng(7)
DEGENERATE_CLOUDS = {
    "one_point": np.array([[1.0, 2.0, 3.0]]),
    "two_points": np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]),
    "duplicates": np.tile([[1.0, 2.0, 3.0]], (40, 1)),
    "line": np.column_stack([_LINE, np.zeros(300), np.zeros(300)]),
    "vertical_line": np.column_stack([np.zeros(300), np.zeros(300), _LINE]),
    "plane": _PLANE,
    "plane_60deg": np.column_stack([_PLANE[:, :2], np.tan(np.radians(60.0)) * _PLANE[:, 0]]),
    "plane_point_1000km_up": np.vstack([_PLANE, [0.0, 0.0, 1e6]]),
    "plane_duplicate_cluster": np.vstack([_PLANE, np.tile([0.3, 0.3, 0.0], (500, 1))]),
    "plane_1nm_jitter": _PLANE + _NOISE.normal(0.0, 1e-9, _PLANE.shape),
    "noise_ball": _NOISE.normal(0.0, 0.3, (1500, 3)),
    "plane_at_utm": _PLANE + [499980.0, 4999980.0, 100.0],
    "plane_0.5mm_wide": _PLANE * 0.00025,
}


class TestAwkwardClouds:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(DEGENERATE_CLOUDS))
    def test_degenerate_cloud_result_or_empty_dem(self, name):
        # no raw numpy error and no warning: a result, or a typed failure
        # at dem because no point or cell qualifies as ground
        try:
            result = run_pipeline(PipelineConfig(), cloud=PointCloud(DEGENERATE_CLOUDS[name]))
        except PipelineError as err:
            assert err.stage == "dem" and isinstance(err.cause, EmptyInputError), err
        else:
            assert len(result.cloud) == len(DEGENERATE_CLOUDS[name])
            assert result.grid.labels.size == result.timing.counts["grid_cells"] > 0

    def test_street_at_utm_coordinates(self):
        # the offset is a whole number of every cell size, so the grids
        # keep their lattice; only the saliencies' last bits move (at most
        # 2.5e-8 on this scene, 7e-8 on the full-density street)
        cloud = generate_scene(SceneSpec(density=60.0))
        offset = np.array([499980.0, 4999980.0, 100.0])
        config = PipelineConfig(curb=STREET_CURB)
        base = run_pipeline(config, cloud=PointCloud(cloud.points))
        moved = run_pipeline(config, cloud=PointCloud(cloud.points + offset))
        assert len(base.detection.indices) > 500
        assert np.array_equal(moved.detection.indices, base.detection.indices)
        assert np.array_equal(moved.grid.labels, base.grid.labels)
        assert np.array_equal(moved.dem.valid, base.dem.valid)
        assert np.array_equal(np.subtract(moved.dem.origin, base.dem.origin), offset[:2])
        for name in ("stick", "plate", "ball", "nx", "ny", "nz", "zsal"):
            diff = np.abs(moved.cloud.channel(name) - base.cloud.channel(name)).max()
            assert diff < 1e-7, (name, diff)


class TestCli:
    def test_write_default_config(self, capsys):
        assert main(["--write-default-config"]) == 0
        out = capsys.readouterr().out
        assert "[voting]" in out and "sigma = 0.3" in out

    def test_gen_scene_then_run(self, tmp_path, capsys):
        cloud_file = tmp_path / "street.xyz"
        cloud_file.write_bytes(write_cloud(generate_scene(
            SceneSpec(extent=8.0, road_width=4.0, wall_x=(), canopy_blobs=(),
                      density=100.0, seed=12)), "xyz"))
        grid_file = tmp_path / "map.sgrd"
        raster_file = tmp_path / "map.ppm"
        code = main([
            "--input", str(cloud_file), "--format", "xyz", "--threads", "2",
            "--sigma", "0.3", "--out-grid", str(grid_file),
            "--out-raster", str(raster_file),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("\n") == 1
        report = json.loads(out)   # stdout is the one JSON object
        assert report["seconds"]["vote"] > 0.0
        assert report["written"] == [str(raster_file), str(grid_file)]
        grid = read_compact(grid_file.read_bytes())
        assert grid.labels.size > 1000
        assert raster_file.read_bytes().startswith(b"P6\n")

    def test_report_json(self, tmp_path, small_cloud, capsys):
        path = tmp_path / "scene.xyz"
        path.write_bytes(write_cloud(small_cloud, "xyz"))
        assert main(["--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1   # one JSON object, on one line
        data = json.loads(out)
        assert list(data["seconds"]) == list(STAGES)
        assert all(value >= 0.0 for value in data["seconds"].values())
        assert data["total_s"] == pytest.approx(sum(data["seconds"].values()))
        assert data["counts"]["parse_points"] == len(small_cloud)
        assert set(data["counts"]) >= {"parse_rejected", "crop_points", "ground_candidates",
                                       "curb_plate_candidates", "curb_height_gated",
                                       "curb_points", "grid_cells", "vote_blocks",
                                       "vote_pairs_examined", "vote_pairs_in_radius",
                                       "vote_max_block_pairs"}
        histogram = [data["counts"][f"grid_{label.name.lower()}"] for label in SemanticLabel]
        assert sum(histogram) == data["counts"]["grid_cells"]
        assert data["peak_rss_mb"] > 0.0
        assert list(data["stage_peak_rss_mb"]) == list(STAGES)
        assert data["written"] == []

    def test_missing_input_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_failed_stage_reported_on_stderr(self, tmp_path, small_cloud, capsys):
        path = tmp_path / "scene.xyz"
        path.write_bytes(write_cloud(small_cloud, "xyz"))
        code = main(["--input", str(path), "--crop", "50,50,50,60,60,60",
                     "--out-grid", str(tmp_path / "never.sgrd")])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: stage 'crop' failed" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "never.sgrd").exists()

    def test_infinite_sigma_writes_nothing(self, tmp_path, small_cloud, capsys):
        path = tmp_path / "scene.xyz"
        path.write_bytes(write_cloud(small_cloud, "xyz"))
        outputs = [tmp_path / name for name in ("out.xyz", "out.asc", "out.ppm", "out.sgrd")]
        code = main(["--input", str(path), "--sigma", "inf",
                     *[arg for flag, out in zip(("--out-cloud", "--out-dem", "--out-raster",
                                                 "--out-grid"), outputs)
                       for arg in (flag, str(out))]])
        captured = capsys.readouterr()
        assert code == 1
        assert "sigma must be positive and finite" in captured.err
        assert captured.out == ""
        assert not any(out.exists() for out in outputs)

    def test_config_file_plus_flag_override(self, tmp_path, small_cloud, capsys,
                                            monkeypatch):
        path = tmp_path / "scene.xyz"
        path.write_bytes(write_cloud(small_cloud, "xyz"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[cloud]\ninput = {path}\n[run]\nthreads = 1\n")
        grid_file = tmp_path / "map.sgrd"
        seen = []
        monkeypatch.setattr(cli, "run_pipeline",
                            lambda config: seen.append(config) or run_pipeline(config))
        assert main(["--config", str(cfg), "--threads", "2",
                     "--out-grid", str(grid_file)]) == 0
        assert grid_file.exists()
        assert (seen[0].threads, seen[0].input_path) == (2, str(path))
        assert seen[0].out_grid == str(grid_file)
