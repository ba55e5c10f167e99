"""Workload definitions of the curbmap benchmark.

Each workload is a synthetic scene from `curbmap.generate_scene`, run
through `run_pipeline` with the street demo's curb settings. Scene
parameters are plain keyword dicts so that this module imports nothing
beyond the standard library; the benchmark's `--seed` replaces the
scene seed of every workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# The street demo's curb settings (scripts/run_street_demo.py).
CURB_PARAMS = {"plate_threshold": 0.35, "outlier_min_neighbors": 5}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scene: dict = field(default_factory=dict)
    # "memory": the generated cloud is passed to run_pipeline directly;
    # "pcd": it is written as ASCII PCD in set-up and read via input_path.
    source: str = "memory"
    seed: int = 0  # scene seed used when the benchmark is given none

    def scene_kwargs(self, seed: int | None = None, scale: float = 1.0) -> dict:
        """SceneSpec keywords for a seed; scale < 1 thins the sampling density."""
        kwargs = dict(self.scene, seed=self.seed if seed is None else seed)
        kwargs["density"] = kwargs.get("density", 300.0) * scale
        return kwargs


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "street",
            "the reference street scene, 117k points in memory on 1 thread: "
            "vote ~70% and export ~20%, where a vote-kernel or writer gain shows",
        ),
        Workload(
            "survey",
            "a sparse 40 m survey read from ASCII PCD on 1 thread: parse and export "
            "dominate and vote is ~35%, the control that bypasses the vote kernel",
            scene={"extent": 40.0, "road_width": 8.0, "wall_x": (12.0, -15.0),
                   "canopy_blobs": ((-8.0, -10.0, 2.5), (9.0, 6.0, 3.0),
                                    (-10.0, 12.0, 2.0)),
                   "density": 75.0},
            source="pcd",
            seed=1,
        ),
    )
}
