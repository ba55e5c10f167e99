"""Radius neighbor queries over a fixed point set.

The workhorse is a uniform grid hash: points are binned once into cells
of a fixed size (by default the query radius, so any query touches at
most 27 cells), and each cell gathers its candidates from the
surrounding cell block into one flat table, ascending by point index.
The vote and the radius count both walk a cell's receivers against that
candidate list. The brute-force linear scan lives in tests/oracles.py
as the reference.

Neighbor contract: exactly the points with Euclidean distance <= radius
(boundary inclusive). A point is its own neighbor, and so is each of its
exact duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud

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


def build_index(cloud: PointCloud, cell_size: float) -> UniformGridIndex:
    """Bin all points of the cloud into a uniform grid."""
    if not cell_size > 0:
        raise ValueError(f"cell_size must be positive, got {cell_size}")
    pts = cloud.points
    if len(pts) == 0:
        zero = np.zeros(0, dtype=np.int64)
        return UniformGridIndex(cloud, float(cell_size), np.zeros(3),
                                np.zeros(3, dtype=np.int64), zero, zero, zero, zero)
    origin = pts.min(axis=0)
    cc = np.floor((pts - origin) / cell_size).astype(np.int64)
    dims = cc.max(axis=0) + 1
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
    inclusive. Each cell's receivers are counted against the cell's
    candidate list in row chunks of at most ROW_CHUNK_PAIRS pairs, or
    one row.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    coords = np.ascontiguousarray(index.cloud.points.T)
    counts = np.zeros(len(index.cloud), dtype=np.int64)
    r2 = radius * radius
    for slot in range(index.cell_count):
        recv = index.cell_points(slot)
        cand = index.cell_candidates(slot, radius)
        cp = coords[:, cand]
        rows = max(1, ROW_CHUNK_PAIRS // len(cand))
        for a in range(0, len(recv), rows):
            chunk = recv[a:a + rows]
            counts[chunk] = _count_block(coords[:, chunk], cp, r2)
    return counts
