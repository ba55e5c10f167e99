#!/usr/bin/env python3
"""Run the pipeline over benchmark scenes and settings, and score each run.

For every workload, seed, sigma and plate threshold, generates the
workload's scene (perfbench/workloads.py), runs the pipeline on it in
memory with the benchmark's curb settings, writes the four outputs into
--out and prints one JSON line: the grid point, the run report, curb
recall/precision and grid accuracy against the scene's truth
(perfbench/measure.py's `quality`), how many detected curb points are
canopy, the sha256 of each written file, and whether the labeled cloud
parses back to exactly the values written (`reparse_s` is that text
parse's time). Each grid point runs in a fresh process, so the peak
memory its line reports is its own. The defaults are the standard
street demo; a sweep:

    python scripts/run_street_demo.py --workloads street,survey --seeds 0,1,2 \\
        --sigmas 0.25,0.3 --taus 0.3,0.35,0.4 --threads 1
"""

import argparse
import hashlib
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from measure import quality  # noqa: E402
from workloads import CURB_PARAMS, WORKLOADS  # noqa: E402

from curbmap import (CurbParams, PipelineConfig, SceneSpec, VotingParams,  # noqa: E402
                     generate_scene, parse_cloud, run_pipeline)
from curbmap.scene import TRUTH_CANOPY  # noqa: E402


def run(workload: str, spec: SceneSpec, sigma: float, tau: float, threads: int,
        out: Path) -> bool:
    """One pipeline run on the workload's scene: print its JSON line and
    return whether the labeled cloud parsed back exactly."""
    fmt = "pcd" if WORKLOADS[workload].source == "pcd" else "xyz"
    config = PipelineConfig(
        input_format=fmt,
        voting=VotingParams(sigma=sigma),
        curb=CurbParams(**{**CURB_PARAMS, "plate_threshold": tau}),
        threads=threads,
        out_cloud=str(out / f"{workload}_labeled.{fmt}"),
        out_dem=str(out / f"{workload}_dem.asc"),
        out_raster=str(out / f"{workload}_map.ppm"),
        out_grid=str(out / f"{workload}_map.sgrd"),
    )
    result = run_pipeline(config, cloud=generate_scene(spec))
    curbs = result.detection.indices
    sha256 = {Path(path).name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
              for path in result.written}

    data = Path(config.out_cloud).read_bytes()
    t0 = time.perf_counter()
    back, _ = parse_cloud(data, fmt)
    reparse_s = time.perf_counter() - t0
    curb_conf = np.zeros(len(result.cloud))
    curb_conf[curbs] = result.detection.confidence
    written = [result.cloud.points, *result.cloud.channels.values(), curb_conf]
    exact = np.array_equal(np.column_stack([back.points, *back.channels.values()]),
                           np.column_stack(written))

    print(result.timing.to_json(
        workload=workload, seed=spec.seed, sigma=sigma, tau=tau,
        quality=quality(spec, result),
        canopy_curb_points=int((result.cloud.channel("truth")[curbs] == TRUTH_CANOPY).sum()),
        sha256=sha256, reparse_s=reparse_s, reparse_exact=exact), flush=True)
    return exact


def run_each(points, threads: int, out: Path) -> list[bool]:
    """`run` each (workload, spec, sigma, tau) of points, one after another,
    each in a fresh process.

    The processes are forked from a fork server, not spawned: a spawned
    process starts from its parent's high-water RSS (Linux carries it
    across exec), which would floor every reading at the caller's.
    """
    server = multiprocessing.get_context("forkserver")
    with ProcessPoolExecutor(1, mp_context=server, max_tasks_per_child=1) as pool:
        return [pool.submit(run, *point, threads, out).result() for point in points]


def main():
    def listed(kind):
        return lambda text: [kind(v) for v in text.split(",")]

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", type=listed(str), default=["street"],
                    help=f"comma-separated, of {', '.join(WORKLOADS)}")
    ap.add_argument("--seeds", type=listed(int), default=[0], help="scene seeds")
    ap.add_argument("--sigmas", type=listed(float), default=[0.3],
                    help="voting decay scales in meters")
    ap.add_argument("--taus", type=listed(float), default=[0.35],
                    help="curb plate thresholds")
    ap.add_argument("--out", default="street_out", help="output directory")
    ap.add_argument("--threads", type=int, default=2)
    args = ap.parse_args()
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        ap.error(f"unknown workloads: {', '.join(sorted(unknown))}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    points = [(workload, SceneSpec(**WORKLOADS[workload].scene_kwargs(seed)), sigma, tau)
              for workload in args.workloads for seed in args.seeds
              for sigma in args.sigmas for tau in args.taus]
    if not all(run_each(points, args.threads, out)):
        raise SystemExit("labeled cloud round trip is not exact")


if __name__ == "__main__":
    main()
