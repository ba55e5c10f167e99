#!/usr/bin/env python3
"""Time sparse voting and the saliency pass across thread counts.

Runs on the standard synthetic street and verifies that every thread
count produces bit-identical tensors. Each timed pass runs what the
pipeline's vote and decompose stages run: sparse_vote, then
attach_saliencies. An untimed first pass walks the vote's blocks
(`UniformGridIndex.blocks`) and counts the blocks, the receiver x
candidate pairs the vote kernel examines, how many of them lie inside
the cutoff, and the largest block.
"""

import argparse
import time

import numpy as np

from curbmap import (SceneSpec, VotingParams, attach_saliencies, build_index,
                     generate_scene, sparse_vote)


def count_pairs(cloud, index, params):
    """Walk the blocks the vote sees and count their pairs."""
    stats = {"blocks": 0, "examined": 0, "inradius": 0, "largest": 0}
    coords = np.ascontiguousarray(cloud.points.T)
    r2 = params.cutoff * params.cutoff
    for recv, cand in index.blocks(range(index.cell_count), params.cutoff):
        pairs = len(recv) * len(cand)
        stats["blocks"] += 1
        d2 = sum(np.subtract.outer(coords[a, recv], coords[a, cand]) ** 2 for a in range(3))
        stats["examined"] += pairs
        stats["inradius"] += int(np.count_nonzero((d2 > 0.0) & (d2 <= r2)))
        stats["largest"] = max(stats["largest"], pairs)
    return stats


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--threads", default="1,2,4", help="comma-separated thread counts")
    ap.add_argument("--sigma", type=float, default=0.3)
    ap.add_argument("--density", type=float, default=300.0)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    cloud = generate_scene(SceneSpec(density=args.density))
    params = VotingParams(sigma=args.sigma)
    index = build_index(cloud, params.cutoff)
    print(f"{len(cloud)} points, sigma {params.sigma} m, cutoff {params.cutoff:.3f} m, "
          f"{index.cell_count} occupied cells")
    stats = count_pairs(cloud, index, params)
    print(f"{stats['blocks']:,} blocks, pairs examined {stats['examined']:,}, "
          f"in radius {stats['inradius']:,}, "
          f"yield {stats['inradius'] / max(stats['examined'], 1):.3f}, "
          f"largest block {stats['largest']:,} pairs")

    reference = None
    for threads in (int(t) for t in args.threads.split(",")):
        best = np.inf
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            tensors = sparse_vote(cloud, index, params, threads=threads)
            attach_saliencies(cloud, tensors)
            best = min(best, time.perf_counter() - t0)
        if reference is None:
            reference = tensors
            note = ""
        else:
            note = "  bit-identical" if np.array_equal(tensors, reference) else "  MISMATCH"
        print(f"threads={threads}: best of {args.repeats}: {best:.2f} s{note}")


if __name__ == "__main__":
    main()
