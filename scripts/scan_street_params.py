#!/usr/bin/env python3
"""Scan voting scale and curb thresholds on the synthetic street.

Sweeps sigma and the plate threshold, reporting curb recall/precision
against the 0.1 m curb-face band, canopy leakage through the height
gate, and semantic grid accuracy against the truth rasterization. Use
this to pick pipeline defaults for street-like scenes.
"""

import argparse
import time

import numpy as np

from curbmap import (ClassifyParams, CurbParams, GroundParams, SceneSpec,
                     VotingParams, classify_cells, generate_scene, ground_model,
                     height_gate, outlier_removal, plate_candidates,
                     saliency_field, truth_grid)
from curbmap.scene import TRUTH_CANOPY, curb_face_distance


def evaluate(cloud, spec, sigma, taus, threads):
    t0 = time.perf_counter()
    field = saliency_field(cloud, VotingParams(sigma=sigma), threads=threads)
    vote_s = time.perf_counter() - t0
    ground_idx, dem = ground_model(field, GroundParams())
    band = curb_face_distance(spec, field.points) <= 0.1
    truth = field.channel("truth")
    print(f"sigma={sigma}: vote+decompose {vote_s:.1f}s, "
          f"ground {len(ground_idx)}, band pts {band.sum()}")
    for tau in taus:
        cp = CurbParams(plate_threshold=tau)
        s1 = plate_candidates(field, cp)
        s2 = height_gate(field, s1, dem, cp)
        s3 = outlier_removal(field, s2, cp.outlier_radius, cp.outlier_min_neighbors)
        detected = np.zeros(len(field), dtype=bool)
        detected[s3] = True
        tp = (detected & band).sum()
        recall = tp / band.sum() if band.sum() else 0.0
        precision = tp / detected.sum() if detected.sum() else 0.0
        canopy_kept = (truth[s2] == TRUTH_CANOPY).sum()
        grid = classify_cells(field, dem, s3, ground_idx, ClassifyParams())
        ref = truth_grid(field, spec, ClassifyParams())
        acc = (grid.labels == ref.labels).mean()
        print(f"  tau={tau}: cand {len(s1):6d} gated {len(s2):6d} kept {len(s3):6d}"
              f"  recall {recall:.3f} precision {precision:.3f}"
              f"  canopy through gate {canopy_kept}  grid acc {acc:.3f}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sigmas", default="0.15,0.2,0.25,0.3")
    ap.add_argument("--taus", default="0.3,0.4,0.5,0.6")
    ap.add_argument("--density", type=float, default=250.0)
    ap.add_argument("--threads", type=int, default=2)
    args = ap.parse_args()

    spec = SceneSpec(density=args.density)
    cloud = generate_scene(spec)
    print(f"street scene: {len(cloud)} points")
    for sigma in (float(s) for s in args.sigmas.split(",")):
        evaluate(cloud, spec, sigma, [float(t) for t in args.taus.split(",")], args.threads)


if __name__ == "__main__":
    main()
