"""Timed, checked run_pipeline calls on one prepared workload.

Run in a fresh interpreter by run.py after set-up, so that the peak RSS
of this process covers loading the prepared input and the calls alone.
It is a closed loop: one caller, each call issued after the previous one
returns, until --seconds have passed. Prints one JSON object as its last
line of standard output.

    python3 perfbench/measure.py --workload street --work DIR --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import spans  # noqa: E402
from prepare import input_file  # noqa: E402
from workloads import CURB_PARAMS, WORKLOADS  # noqa: E402

from curbmap import (ClassifyParams, CurbParams, PipelineConfig, PointCloud,  # noqa: E402
                     SceneSpec, SemanticLabel, read_compact, truth_grid)
from curbmap import pipeline, voting  # noqa: E402
from curbmap.neighbors import build_index  # noqa: E402
from curbmap.scene import curb_face_distance  # noqa: E402

SALIENCY_CHANNELS = ("stick", "plate", "ball", "nx", "ny", "nz")
MIN_ROUNDS = 3            # timed plain calls per run, at the least
ORACLE_RECEIVERS = 64
ORACLE_TOLERANCE = 1e-9   # saliency error allowed, relative to the tensor trace
CURB_BAND = 0.1           # meters from a curb face that count as curb truth


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Calls:
    """Issues run_pipeline calls and checks each against the first one.

    A call fails when it raises or when any output digest differs from
    the first successful call of this process. The peak RSS is read
    right after the first call: later calls can raise it through heap
    fragmentation, by an amount that depends on how many calls fit.
    """

    def __init__(self, config: PipelineConfig, cloud: PointCloud | None):
        self.config = config
        self.cloud = cloud
        self.outputs = [Path(p) for p in (config.out_cloud, config.out_dem,
                                          config.out_raster, config.out_grid)]
        self.reference: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.result = None
        self.first_peak_mb: float | None = None

    def run(self, tracer: spans.Tracer | None = None) -> float | None:
        """One call; its wall seconds, or None when it failed."""
        for path in self.outputs:
            path.unlink(missing_ok=True)
        self.attempted += 1
        try:
            if tracer is None:
                t0 = time.perf_counter()
                result = pipeline.run_pipeline(self.config, cloud=self.cloud)
                seconds = time.perf_counter() - t0
                if self.first_peak_mb is None:
                    self.first_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            else:
                with spans.installed(tracer), tracer.span(spans.ROOT):
                    result = pipeline.run_pipeline(self.config, cloud=self.cloud)
                seconds = tracer.totals()[spans.ROOT]
            digests = self.digests(result)
        except Exception as exc:  # every failure of a call is counted, none is fatal
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            self.failed += 1
            self.errors.append(f"output digests differ from the first call: {digests}")
            return None
        self.result = result
        return seconds

    def digests(self, result) -> dict[str, str]:
        saliency = b"".join(np.ascontiguousarray(result.cloud.channel(name)).tobytes()
                            for name in SALIENCY_CHANNELS)
        return {
            "sgrd": sha256(Path(self.config.out_grid).read_bytes()),
            "dem_ascii": sha256(Path(self.config.out_dem).read_bytes()),
            "labeled_cloud": sha256(Path(self.config.out_cloud).read_bytes()),
            "saliency": sha256(saliency),
        }


def output_problems(config: PipelineConfig, result) -> list[str]:
    """Structural checks of the files a call wrote against its result."""
    problems = []
    grid = read_compact(Path(config.out_grid).read_bytes())
    if not np.array_equal(grid.labels, result.grid.labels):
        problems.append("SGRD labels differ from the classified grid")
    nrows, ncols = result.dem.shape
    dem_lines = Path(config.out_dem).read_text().splitlines()
    if dem_lines[:2] != [f"ncols {ncols}", f"nrows {nrows}"] or len(dem_lines) != 6 + nrows:
        problems.append("DEM ASCII grid does not match the DEM shape")
    gnrows, gncols = result.grid.shape
    if not Path(config.out_raster).read_bytes().startswith(f"P6\n{gncols} {gnrows}\n".encode()):
        problems.append("raster header does not match the grid shape")
    rows = Path(config.out_cloud).read_bytes().splitlines()
    if config.input_format == "pcd":
        rows = rows[rows.index(b"DATA ascii") + 1:]
    if len(rows) != len(result.cloud):
        problems.append(f"labeled cloud has {len(rows)} rows for {len(result.cloud)} points")
    return problems


def oracle_problems(result, params: voting.VotingParams, seed: int) -> list[str]:
    """Saliencies of sampled points against a direct ball-vote sum.

    The reference sums exp(-d^2/sigma^2) (I - u u^T) over every point
    with 0 < d <= cutoff, by a linear scan, and decomposes it with
    numpy's eigvalsh; it shares no code with the package.
    """
    points = result.cloud.points
    rng = np.random.default_rng(seed)
    sample = rng.choice(len(points), size=min(ORACLE_RECEIVERS, len(points)), replace=False)
    r2, s2 = params.cutoff ** 2, params.sigma ** 2
    worst = 0.0
    for i in sample:
        delta = points[i] - points
        d2 = np.einsum("ij,ij->i", delta, delta)
        near = (d2 > 0.0) & (d2 <= r2)
        u = delta[near] / np.sqrt(d2[near])[:, None]
        w = np.exp(-d2[near] / s2)
        tensor = (w.sum() + float(params.include_self)) * np.eye(3) \
            - np.einsum("k,ki,kj->ij", w, u, u)
        lam = np.linalg.eigvalsh(tensor)[::-1]
        expect = np.array([lam[0] - lam[1], lam[1] - lam[2], lam[2]])
        got = np.array([result.cloud.channel(c)[i] for c in ("stick", "plate", "ball")])
        worst = max(worst, float(np.abs(expect - got).max() / np.trace(tensor)))
    if worst > ORACLE_TOLERANCE:
        return [f"saliency differs from the direct vote sum by {worst:.3g} of the trace"]
    return []


def quality(spec: SceneSpec, result) -> dict[str, float]:
    """Curb recall and precision and grid accuracy against scene truth."""
    band = curb_face_distance(spec, result.cloud.points) <= CURB_BAND
    detected = np.zeros(len(result.cloud), dtype=bool)
    detected[result.detection.indices] = True
    tp = int((detected & band).sum())
    reference = truth_grid(result.cloud, spec, ClassifyParams())
    return {
        "curb_recall": tp / max(int(band.sum()), 1),
        "curb_precision": tp / max(int(detected.sum()), 1),
        "grid_accuracy": float((result.grid.labels == reference.labels).mean()),
    }


def timed_loop(calls: Calls, seconds: float, traced: bool):
    """A warm-up call, then rounds of calls while the next round is expected
    to end within `seconds` of the start.

    The warm-up call is checked and counted but not timed: it pays for
    first-use costs that later calls do not see. A round is one call, or
    a plain and a traced call when traced. At least MIN_ROUNDS plain
    rounds (one traced round) run, whatever the time.
    """
    plain, tracers = [], []
    start = time.perf_counter()
    calls.run()
    rounds = 0
    while True:
        t0 = time.perf_counter()
        dt = calls.run()
        if dt is not None:
            plain.append(dt)
        if traced:
            tracer = spans.Tracer()
            if calls.run(tracer) is not None:
                tracers.append(tracer)
        rounds += 1
        now = time.perf_counter()
        if rounds >= (1 if traced else MIN_ROUNDS) and now - start + (now - t0) > seconds:
            return plain, tracers


def bound_args(fn, call) -> dict:
    args, kwargs, _ = call
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def layer_metrics(tracers: list[spans.Tracer], plain: list[float]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced calls; times are medians over them."""
    totals = [t.totals() for t in tracers]
    last = tracers[-1]

    def seconds(*names):
        return statistics.median(sum(t.get(n, 0.0) for n in names) for t in totals)

    def result(name):
        return last.last[name][2] if name in last.last else None

    def size(name):
        out = result(name)
        return 0 if out is None else len(out)

    problems = []
    m = {
        "cloud.parse_s": seconds("cloud.parse"),
        "cloud.bytes_in": 0,
        "cloud.write_s": seconds("cloud.write"),
        "cloud.bytes_out": size("cloud.write"),
        "neighbors.index_s": seconds("neighbors.index"),
        "neighbors.radius_calls": last.calls("neighbors.radius"),
        "neighbors.radius_s": seconds("neighbors.radius"),
        "voting.vote_s": seconds("voting.vote"),
        "eigen.decompose_s": seconds("eigen.decompose"),
        "eigen.tensors": 0,
        "dem.s": seconds("dem.ground", "dem.height", "dem.refine"),
        "dem.ground_candidates": size("dem.ground"),
        "dem.height_cells": 0,
        "dem.refined_valid_cells": 0,
        "dem.ascii_s": seconds("dem.ascii"),
        "curb.s": seconds("curb.plate", "curb.gate", "curb.outlier"),
        "curb.outlier_s": seconds("curb.outlier"),
        "curb.plate_candidates": size("curb.plate"),
        "curb.height_gated": size("curb.gate"),
        "curb.points": size("curb.outlier"),
        "semantic.classify_s": seconds("semantic.classify"),
        "semantic.encode_s": seconds("semantic.raster", "semantic.compact"),
        "semantic.cells": 0,
        "pipeline.self_s": seconds(spans.ROOT + ".self"),
        "trace.overhead_frac": statistics.median(t[spans.ROOT] for t in totals)
        / statistics.median(plain) - 1.0,
    }
    if "cloud.parse" in last.last:
        m["cloud.bytes_in"] = len(bound_args(pipeline.parse_cloud, last.last["cloud.parse"])["source"])
    if "eigen.decompose" in last.last:
        m["eigen.tensors"] = len(bound_args(voting.decompose_batch, last.last["eigen.decompose"])["t6"])
    if result("dem.height") is not None:
        m["dem.height_cells"] = int(result("dem.height").valid.sum())
    if result("dem.refine") is not None:
        m["dem.refined_valid_cells"] = int(result("dem.refine").valid.sum())
    grid = result("semantic.classify")
    histogram = np.zeros(len(SemanticLabel), dtype=np.int64)
    if grid is not None:
        m["semantic.cells"] = int(grid.labels.size)
        histogram = np.bincount(grid.labels.ravel(), minlength=len(SemanticLabel))
    for label in SemanticLabel:
        m[f"semantic.label.{label.name.lower()}"] = int(histogram[label])

    vote = bound_args(voting.sparse_vote, last.last["voting.vote"])
    cloud, index, params = vote["cloud"], vote["index"], vote["params"]
    pairs = spans.block_pairs(index, params.cutoff)
    candidate = int(pairs.sum())
    inradius = spans.inradius_pairs(cloud.points, index, params.cutoff)
    m.update({
        "voting.candidate_pairs": candidate,
        "voting.inradius_pairs": inradius,
        "voting.pair_yield": inradius / candidate,
        "voting.max_block_pairs": int(pairs.max()),
        "voting.ns_per_candidate_pair": m["voting.vote_s"] * 1e9 / candidate,
    })

    # One more vote on two threads, on a fresh index as the pipeline's own
    # one-thread vote gets, must give the same bytes.
    fresh = build_index(cloud, index.cell_size)
    t0 = time.perf_counter()
    tensors = voting.sparse_vote(cloud, fresh, params, threads=2)
    two_s = time.perf_counter() - t0
    if tensors.tobytes() != result("voting.vote").tobytes():
        problems.append("vote tensors on one and two threads differ")
    m["voting.thread_speedup"] = m["voting.vote_s"] / two_s
    if last.missing:
        problems.append(f"trace points not found: {last.missing}")
    return m, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    scene = workload.scene_kwargs(args.seed, args.scale)
    work = Path(args.work)
    source = input_file(work, workload.source)
    cloud = None
    if workload.source == "memory":
        with np.load(source) as data:
            cloud = PointCloud(data["points"],
                               {name: data[name] for name in data.files if name != "points"})
    config = PipelineConfig(
        input_path=str(source) if cloud is None else "",
        input_format="pcd" if cloud is None else "xyz",
        curb=CurbParams(**CURB_PARAMS),
        out_cloud=str(work / "labeled.out"),
        out_dem=str(work / "dem.asc"),
        out_raster=str(work / "map.ppm"),
        out_grid=str(work / "map.sgrd"),
    )

    calls = Calls(config, cloud)
    plain, tracers = timed_loop(calls, args.seconds, bool(args.trace))

    record = {
        "attempted": calls.attempted,
        "failed": calls.failed,
        "errors": calls.errors[:5],
        "problems": [],
        "pipeline_s": plain,
        "digests": calls.reference,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if calls.result is not None:
        result = calls.result
        record["points"] = len(result.cloud)
        record["peak_rss_mb"] = calls.first_peak_mb
        record["quality"] = quality(SceneSpec(**scene), result)
        record["problems"] += output_problems(config, result)
        record["problems"] += oracle_problems(result, config.voting, scene["seed"])
        if tracers and plain:
            record["traced_s"] = [t.totals()[spans.ROOT] for t in tracers]
            record["layers"], problems = layer_metrics(tracers, plain)
            record["problems"] += problems
    print(json.dumps(record))


if __name__ == "__main__":
    main()
