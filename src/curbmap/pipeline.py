"""End-to-end orchestration with per-stage timing.

Stages run in a fixed order: parse, crop, index, vote, decompose, dem,
curb, grid, export. Each is one `with stage(name):` block, which records
its seconds and peak memory when it ends. Any failure aborts the run
with the stage name and removes files already written, so a failed run
leaves no partial outputs. Outputs are deterministic for a fixed config
regardless of the thread count.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import curb as curb_mod
from . import dem as dem_mod
from . import semantic, voting
# write_cloud is not called here; perfbench/spans.py traces it under this
# module's name, so it stays importable from it
from .cloud import PointCloud, cloud_chunks, crop, parse_cloud, write_cloud  # noqa: F401
from .config import PipelineConfig
from .errors import EmptyInputError, PipelineError
from .neighbors import build_index

STAGES = ("parse", "crop", "index", "vote", "decompose", "dem", "curb", "grid", "export")


@dataclass
class TimingReport:
    """Wall time per stage, point counts flowing through the filters, peak memory.

    counts also holds sparse_vote's counters and the label histogram,
    one grid_<label> entry per SemanticLabel. peak_rss_mb is the
    process's high-water resident set size in MiB, read when the run
    ends: in a process that runs several pipelines it is the largest so
    far, not this run's own.
    stage_peak_rss_mb is the same high-water mark read as each stage
    ends, so the first stage at which it reaches peak_rss_mb is the one
    that set the run's peak.
    """

    seconds: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    stage_peak_rss_mb: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def to_json(self, **extra) -> str:
        """The report as one line of JSON: seconds, total_s, counts,
        peak_rss_mb, stage_peak_rss_mb, then the keys of `extra`."""
        return json.dumps({"seconds": {stage: self.seconds[stage]
                                       for stage in STAGES if stage in self.seconds},
                           "total_s": self.total, "counts": self.counts,
                           "peak_rss_mb": self.peak_rss_mb,
                           "stage_peak_rss_mb": self.stage_peak_rss_mb, **extra})


@dataclass
class PipelineResult:
    timing: TimingReport
    cloud: PointCloud
    dem: dem_mod.DemGrid
    detection: curb_mod.CurbDetection
    grid: semantic.SemanticGrid
    written: list[str]


def _peak_rss_mb() -> float:
    """The process's high-water resident set size in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_pipeline(config: PipelineConfig, cloud: PointCloud | None = None) -> PipelineResult:
    """Execute the full detection pipeline described by the config.

    A pre-built cloud may be passed instead of reading config.input_path,
    which is how generated scenes run without touching disk.
    """
    report = TimingReport()
    written: list[str] = []
    current = None

    @contextlib.contextmanager
    def stage(name: str):
        nonlocal current
        current = name
        t0 = time.perf_counter()
        yield
        report.seconds[name] = time.perf_counter() - t0
        report.stage_peak_rss_mb[name] = _peak_rss_mb()

    try:
        with stage("parse"):
            if cloud is None:
                # the file's bytes are referenced only by the call, so they
                # are freed when it returns
                cloud, summary = parse_cloud(Path(config.input_path).read_bytes(),
                                             config.input_format)
                report.counts["parse_rejected"] = summary.rejected
        report.counts["parse_points"] = len(cloud)

        with stage("crop"):
            if config.crop is not None:
                cloud = crop(cloud, config.crop)
            if len(cloud) == 0:
                raise EmptyInputError("no points remain after crop")
            # refuse an oversized label grid now, not after the vote
            xy = cloud.points[:, :2]
            dem_mod.grid_shape(xy, dem_mod.snapped_origin(xy, config.classify.cell),
                               config.classify.cell)
        report.counts["crop_points"] = len(cloud)

        with stage("index"):
            index = build_index(cloud, config.voting.cutoff)

        with stage("vote"):
            tensors = voting.sparse_vote(cloud, index, config.voting, threads=config.threads,
                                         counts=report.counts)
            del index

        with stage("decompose"):
            cloud = voting.attach_saliencies(cloud, tensors)
            del tensors  # freed before the dem stage's binning arrays are made

        with stage("dem"):
            ground_idx, refined = dem_mod.ground_model(cloud, config.ground)
        report.counts["ground_candidates"] = len(ground_idx)

        with stage("curb"):
            detection = curb_mod.detect_curbs(cloud, refined, config.curb)
        report.counts["curb_plate_candidates"] = detection.plate_candidates
        report.counts["curb_height_gated"] = detection.height_gated
        report.counts["curb_points"] = len(detection.indices)

        with stage("grid"):
            grid = semantic.classify_cells(cloud, refined, detection.indices,
                                           ground_idx, config.classify)
        report.counts["grid_cells"] = int(grid.labels.size)
        histogram = np.bincount(grid.labels.ravel(), minlength=len(semantic.SemanticLabel))
        for label in semantic.SemanticLabel:
            report.counts[f"grid_{label.name.lower()}"] = int(histogram[label])

        with stage("export"):
            if config.out_cloud:
                curb_conf = np.zeros(len(cloud))
                curb_conf[detection.indices] = detection.confidence
                labeled = cloud.with_channels(curb_conf=curb_conf)
                _write(config.out_cloud, cloud_chunks(labeled, config.input_format), written)
            if config.out_dem:
                _write(config.out_dem, [dem_mod.to_ascii_grid(refined)], written)
            if config.out_raster:
                _write(config.out_raster, [semantic.render_raster(grid)], written)
            if config.out_grid:
                _write(config.out_grid, [semantic.write_compact(grid)], written)
    except Exception as exc:
        for path in written:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise PipelineError(current, exc) from exc
    report.peak_rss_mb = _peak_rss_mb()
    return PipelineResult(report, cloud, refined, detection, grid, written)


def _write(path: str, chunks: Iterable[bytes], written: list[str]):
    """Write the chunks to path as they come, so no output is held whole.

    The path is listed in written once the file is open, before the
    first chunk, so a failure part way through still removes the
    partial file.
    """
    with open(path, "wb") as out:
        written.append(path)
        out.writelines(chunks)
