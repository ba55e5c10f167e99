"""Per-layer spans and kernel counts of run_pipeline, taken from outside.

The package is not instrumented. Instead, while a traced call runs, the
public functions that run_pipeline reaches are replaced by timing
wrappers at the module attribute where each name is looked up at call
time: `curbmap.pipeline` and `curbmap.curb` import some names directly,
the rest are reached through their module (`voting.sparse_vote`,
`dem_mod.refine_dem`, ...). Wrappers are removed when the call returns.

Vote-kernel pair counts are computed from the grid index the pipeline
built, with the same cell blocks and cutoff test the vote uses.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name). A span name may appear more than once:
# build_index is reached both from the pipeline and from the curb filter.
TRACE_POINTS = (
    ("curbmap.pipeline", "parse_cloud", "cloud.parse"),
    ("curbmap.pipeline", "crop", "cloud.crop"),
    ("curbmap.pipeline", "write_cloud", "cloud.write"),
    ("curbmap.pipeline", "build_index", "neighbors.index"),
    ("curbmap.voting", "sparse_vote", "voting.vote"),
    ("curbmap.voting", "decompose_batch", "eigen.decompose"),
    ("curbmap.dem", "extract_ground_candidates", "dem.ground"),
    ("curbmap.dem", "build_height_grid", "dem.height"),
    ("curbmap.dem", "refine_dem", "dem.refine"),
    ("curbmap.dem", "to_ascii_grid", "dem.ascii"),
    ("curbmap.curb", "plate_candidates", "curb.plate"),
    ("curbmap.curb", "height_gate", "curb.gate"),
    ("curbmap.curb", "outlier_removal", "curb.outlier"),
    ("curbmap.curb", "build_index", "neighbors.index"),
    ("curbmap.curb", "radius_neighbors", "neighbors.radius"),
    ("curbmap.semantic", "classify_cells", "semantic.classify"),
    ("curbmap.semantic", "render_raster", "semantic.raster"),
    ("curbmap.semantic", "write_compact", "semantic.compact"),
)

ROOT = "pipeline"


class Tracer:
    """In-memory spans of one traced call: name, parent span, start, end.

    `last[name]` keeps the arguments and result of the latest call of
    each span, which is how the pipeline's index, tensors and filter
    outputs are read back after the call.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.last: dict[str, tuple] = {}
        self.missing: list[str] = []  # trace points not found at install time
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.last[name] = (args, kwargs, result)
            return result
        return traced

    def totals(self) -> dict[str, float]:
        """Summed seconds per span name, plus the root's self time."""
        out: dict[str, float] = {}
        child_time = 0.0
        for name, parent, t0, t1 in self.spans:
            out[name] = out.get(name, 0.0) + (t1 - t0)
            if parent is not None and self.spans[parent][0] == ROOT:
                child_time += t1 - t0
        out[ROOT + ".self"] = out.get(ROOT, 0.0) - child_time
        return out

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore.

    Trace points whose attribute does not exist are listed in
    tracer.missing, so a renamed function shows up as untraced.
    """
    saved = []
    try:
        for module_name, attr, name in TRACE_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                tracer.missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
    for module, attr, original in saved:
        if getattr(module, attr) is not original:
            raise RuntimeError(f"wrapper left on {module.__name__}.{attr}")


def block_pairs(index, cutoff: float) -> np.ndarray:
    """Receiver x candidate pairs of each cell block the vote examines."""
    cell_ptr, _ = index.candidate_table(cutoff)
    receivers = np.array([len(index.cell_points(slot)) for slot in range(index.cell_count)],
                         dtype=np.int64)
    return receivers * np.diff(cell_ptr)


def inradius_pairs(points: np.ndarray, index, cutoff: float) -> int:
    """Pairs of each cell block with 0 < d <= cutoff, the ones that vote.

    One cell block at a time, so memory stays at the largest block.
    """
    r2 = cutoff * cutoff
    total = 0
    for slot in range(index.cell_count):
        rp = points[index.cell_points(slot)]
        cp = points[index.cell_candidates(slot, cutoff)]
        d2 = np.square(rp[:, 0, None] - cp[None, :, 0])
        d2 += np.square(rp[:, 1, None] - cp[None, :, 1])
        d2 += np.square(rp[:, 2, None] - cp[None, :, 2])
        total += int(np.count_nonzero((d2 > 0.0) & (d2 <= r2)))
    return total
