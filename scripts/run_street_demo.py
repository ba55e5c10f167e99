#!/usr/bin/env python3
"""Generate the synthetic street, run the full pipeline, score the result.

Writes the labeled cloud, DEM, raster, and compact grid into an output
directory and prints stage timings plus detection quality against the
scene's ground truth. Each written file is listed with its sha256, so the
outputs of two checkouts can be compared for byte identity. The labeled
cloud is then parsed back: `time_reparse_s` is the text parse time of
the standard street, and the values read must equal the ones written.
"""

import argparse
import hashlib
import time
from pathlib import Path

import numpy as np

from curbmap import (ClassifyParams, CurbParams, PipelineConfig, SceneSpec,
                     generate_scene, parse_cloud, run_pipeline, truth_grid)
from curbmap.scene import curb_face_distance


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="street_out", help="output directory")
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    spec = SceneSpec(seed=args.seed)
    cloud = generate_scene(spec)
    print(f"scene: {len(cloud)} points over {spec.extent} m x {spec.extent} m")

    config = PipelineConfig(
        curb=CurbParams(plate_threshold=0.35, outlier_min_neighbors=5),
        threads=args.threads,
        out_cloud=str(out / "street_labeled.xyz"),
        out_dem=str(out / "street_dem.asc"),
        out_raster=str(out / "street_map.ppm"),
        out_grid=str(out / "street_map.sgrd"),
    )
    result = run_pipeline(config, cloud=cloud)
    print(result.timing)

    band = curb_face_distance(spec, result.cloud.points) <= 0.1
    detected = np.zeros(len(result.cloud), dtype=bool)
    detected[result.detection.indices] = True
    tp = int((detected & band).sum())
    print(f"curb recall: {tp / band.sum():.3f}")
    print(f"curb precision: {tp / max(detected.sum(), 1):.3f}")

    reference = truth_grid(result.cloud, spec, ClassifyParams())
    accuracy = (result.grid.labels == reference.labels).mean()
    print(f"semantic grid accuracy: {accuracy:.3f}")
    for path in result.written:
        print(f"wrote: {path} sha256 {hashlib.sha256(Path(path).read_bytes()).hexdigest()}")

    data = Path(config.out_cloud).read_bytes()
    t0 = time.perf_counter()
    back, _ = parse_cloud(data, "xyz")
    print(f"time_reparse_s: {time.perf_counter() - t0:.3f}")
    curb_conf = np.zeros(len(result.cloud))
    curb_conf[result.detection.indices] = result.detection.confidence
    written = [result.cloud.points, *result.cloud.channels.values(), curb_conf]
    read = [back.points, *back.channels.values()]
    if not np.array_equal(np.column_stack(read), np.column_stack(written)):
        raise SystemExit("labeled cloud round trip is not exact")
    print("labeled cloud round trip: exact")


if __name__ == "__main__":
    main()
