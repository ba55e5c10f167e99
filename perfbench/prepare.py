"""Benchmark set-up: generate one workload's scene and write its input file.

Run in a fresh interpreter by run.py. Prints the seconds it took from
its first line, through the first import of curbmap, scene generation
and the input write.

    python3 perfbench/prepare.py --workload street --seed 0 --out DIR
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402


def input_file(out: Path, source: str) -> Path:
    return out / ("cloud.pcd" if source == "pcd" else "cloud.npz")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    import numpy as np

    from curbmap import SceneSpec, generate_scene, write_cloud

    workload = WORKLOADS[args.workload]
    cloud = generate_scene(SceneSpec(**workload.scene_kwargs(args.seed, args.scale)))
    path = input_file(Path(args.out), workload.source)
    if workload.source == "pcd":
        path.write_bytes(write_cloud(cloud, "pcd"))
    else:
        with open(path, "wb") as fh:
            np.savez(fh, points=cloud.points, **cloud.channels)
    print(time.perf_counter() - T0)


if __name__ == "__main__":
    main()
