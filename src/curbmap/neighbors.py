"""Radius neighbor queries over a fixed point set.

The workhorse is a uniform grid hash: points are binned once into cells
of a fixed size (by default the query radius, so any query touches at
most 27 cells), and each cell gathers its candidates from the
surrounding cell block into one flat table, ascending by point index.
The vote and the radius count both walk `UniformGridIndex.blocks`, which
cuts each cell's receivers and candidate list into bounded blocks. The
brute-force linear scan lives in tests/oracles.py as the reference.

Neighbor contract: exactly the points with Euclidean distance <= radius
(boundary inclusive). A point is its own neighbor, and so is each of its
exact duplicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud
from .errors import CurbmapError

BLOCK_PAIRS = 1 << 16  # cell blocks above this many pairs split by octant
# Receiver rows per block are cut so that a block holds at most this
# many receiver-candidate pairs, or a single row.
ROW_CHUNK_PAIRS = 1 << 18


@dataclass
class UniformGridIndex:
    """Points binned into cubic cells of edge `cell_size`.

    The cell of point p is floor((p - origin) / cell_size) componentwise,
    with origin the componentwise minimum of the indexed points. Internal
    storage is CSR-style: `order` lists point indices grouped by cell and
    ascending within each cell.
    """

    cloud: PointCloud
    cell_size: float
    origin: np.ndarray
    dims: np.ndarray
    cell_keys: np.ndarray   # sorted unique encoded cell keys
    starts: np.ndarray      # offset of each cell's slice in `order`
    counts: np.ndarray      # population of each cell
    order: np.ndarray       # point indices grouped by cell
    _tables: dict = field(default_factory=dict, repr=False)

    @property
    def cell_count(self) -> int:
        return len(self.cell_keys)

    def _decode(self, key):
        cz = key % self.dims[2]
        rem = key // self.dims[2]
        return rem // self.dims[1], rem % self.dims[1], cz

    def cell_points(self, slot: int) -> np.ndarray:
        """Point indices in cell `slot`, ascending."""
        s = self.starts[slot]
        return self.order[s:s + self.counts[slot]]

    def candidate_table(self, radius: float):
        """Flat per-cell candidate lists for a query radius, built once.

        Returns (cell_ptr, candidates): cell `slot` draws from
        candidates[cell_ptr[slot]:cell_ptr[slot + 1]], ascending point
        indices. Building it is one ragged gather plus one sort, so the
        per-cell hot path is reduced to slicing.
        """
        reach = int(np.ceil(radius / self.cell_size))
        table = self._tables.get(reach)
        if table is not None:
            return table
        # Runs: cell `slot` draws from order[run_starts[k]:run_starts[k] + run_counts[k]]
        # for k in ptr[slot]:ptr[slot + 1].
        span = np.arange(-reach, reach + 1, dtype=np.int64)
        offs = np.stack(np.meshgrid(span, span, span, indexing="ij"), axis=-1).reshape(-1, 3)
        cc = np.stack(self._decode(self.cell_keys), axis=1)
        ncell, k = len(cc), len(offs)
        nb = (cc[:, None, :] + offs[None, :, :]).reshape(-1, 3)
        ok = ((nb >= 0) & (nb < self.dims)).all(axis=1)
        keys = (nb[:, 0] * self.dims[1] + nb[:, 1]) * self.dims[2] + nb[:, 2]
        pos = np.searchsorted(self.cell_keys, keys[ok])
        pos = np.minimum(pos, max(self.cell_count - 1, 0))
        hit = np.zeros(ncell * k, dtype=bool)
        hit_pos = np.zeros(ncell * k, dtype=np.int64)
        if self.cell_count:
            hit[ok] = self.cell_keys[pos] == keys[ok]
            hit_pos[ok] = pos
        hit_pos = hit_pos[hit]
        ptr = np.zeros(ncell + 1, dtype=np.int64)
        np.cumsum(hit.reshape(ncell, k).sum(axis=1), out=ptr[1:])
        run_starts, run_counts = self.starts[hit_pos], self.counts[hit_pos]

        total = int(run_counts.sum())
        cum = np.zeros(len(run_counts) + 1, dtype=np.int64)
        np.cumsum(run_counts, out=cum[1:])
        rep = np.repeat(np.arange(len(run_counts)), run_counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], run_counts)
        flat = self.order[run_starts[rep] + within]
        cell_ptr = cum[ptr]
        n = max(len(self.cloud), 1)
        seg = np.repeat(np.arange(len(cell_ptr) - 1, dtype=np.int64),
                        np.diff(cell_ptr))
        composite = np.sort(seg * n + flat)
        table = (cell_ptr, composite % n)
        self._tables[reach] = table
        return table

    def cell_candidates(self, slot: int, radius: float) -> np.ndarray:
        """Sorted point indices from all cells within `radius` reach of `slot`."""
        cell_ptr, candidates = self.candidate_table(radius)
        return candidates[cell_ptr[slot]:cell_ptr[slot + 1]]

    def blocks(self, slots, radius: float):
        """Yield (receivers, candidates) point index blocks for cells `slots`.

        Each receiver of the cells lands in exactly one block, whose
        candidates are ascending and hold every indexed point within
        `radius` of it. A cell whose receivers times candidates exceed
        BLOCK_PAIRS is split by half-cell octant: each octant's receivers
        keep the candidates within ceil(radius / half cell) half cells of
        their own, as a half-size grid would list them, cut from the
        ascending list by a boolean mask over the candidates' half-cell
        box. Blocks above ROW_CHUNK_PAIRS pairs are
        then cut into row chunks, or single rows. Rows are independent,
        so a per-receiver result does not depend on the split.
        """
        half = self.cell_size / 2.0
        reach = math.ceil(radius / half)
        pts = self.cloud.points
        for slot in slots:
            recv = self.cell_points(slot)
            cand = self.cell_candidates(slot, radius)
            parts = [(recv, cand)]
            if len(recv) * len(cand) > BLOCK_PAIRS:
                hr = np.floor((pts[recv] - self.origin) / half).astype(np.int64)
                hc = np.floor((pts[cand] - self.origin) / half).astype(np.int64)
                # one code per candidate: its half cell within the candidates' box
                base = hc.min(axis=0)
                shape = hc.max(axis=0) - base + 1
                code = np.ravel_multi_index((hc - base).T, shape)
                octant = (hr & 1) @ np.array([4, 2, 1])
                parts = []
                for o in np.unique(octant):
                    sel = octant == o
                    lo = np.maximum(hr[sel].min(axis=0) - reach - base, 0)
                    hi = hr[sel].max(axis=0) + reach - base + 1
                    box = np.zeros(shape, dtype=bool)
                    box[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
                    parts.append((recv[sel], cand[box.ravel()[code]]))
            for recv, cand in parts:
                rows = max(1, ROW_CHUNK_PAIRS // len(cand))
                for a in range(0, len(recv), rows):
                    yield recv[a:a + rows], cand


def build_index(cloud: PointCloud, cell_size: float) -> UniformGridIndex:
    """Bin all points of the cloud into a uniform grid.

    Cell keys are int64, so a cloud whose bounding box spans 2**63 cells
    or more raises CurbmapError.
    """
    if not cell_size > 0:
        raise ValueError(f"cell_size must be positive, got {cell_size}")
    pts = cloud.points
    if len(pts) == 0:
        zero = np.zeros(0, dtype=np.int64)
        return UniformGridIndex(cloud, float(cell_size), np.zeros(3),
                                np.zeros(3, dtype=np.int64), zero, zero, zero, zero)
    origin = pts.min(axis=0)
    extent = pts.max(axis=0) - origin
    spans = np.floor(extent / cell_size) + 1
    if not (spans < 2.0 ** 63).all() or math.prod(int(d) for d in spans) >= 2 ** 63:
        raise CurbmapError(f"extent {tuple(extent.tolist())} at cell size {cell_size} "
                           f"needs 2**63 or more grid cells")
    cc = np.floor((pts - origin) / cell_size).astype(np.int64)
    dims = spans.astype(np.int64)
    keys = (cc[:, 0] * dims[1] + cc[:, 1]) * dims[2] + cc[:, 2]
    order = np.argsort(keys, kind="stable")
    cell_keys, starts, counts = np.unique(keys[order], return_index=True, return_counts=True)
    return UniformGridIndex(cloud, float(cell_size), origin, dims,
                            cell_keys, starts.astype(np.int64), counts.astype(np.int64),
                            order.astype(np.int64))


def _count_block(qp, cp, r2: float) -> np.ndarray:
    """For each query of qp (3, k), how many candidates of cp (3, m) lie within r2.

    Offsets are candidate minus query and the squared components are
    summed left to right, the operand order of the linear-scan
    reference, so a pair on the boundary counts exactly as it does there.
    """
    d2 = (cp[0] - qp[0][:, None]) ** 2
    d2 += (cp[1] - qp[1][:, None]) ** 2
    d2 += (cp[2] - qp[2][:, None]) ** 2
    return np.count_nonzero(d2 <= r2, axis=1)


def radius_neighbors(index: UniformGridIndex, radius: float) -> np.ndarray:
    """For every indexed point, how many indexed points lie within `radius`.

    The point itself and exact duplicates count; the boundary is
    inclusive. Receivers are counted against their candidates block by
    block, over `index.blocks`.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    coords = np.ascontiguousarray(index.cloud.points.T)
    counts = np.zeros(len(index.cloud), dtype=np.int64)
    r2 = radius * radius
    for recv, cand in index.blocks(range(index.cell_count), radius):
        counts[recv] = _count_block(coords[:, recv], coords[:, cand], r2)
    return counts
