"""Radius neighbor queries over a fixed point set.

The workhorse is a uniform grid hash: points are binned once into cells
of a fixed size (by default the query radius, so any query touches at
most 27 cells), and queries gather candidates from the surrounding cell
block. The brute-force linear scan with the same output contract lives
in tests/oracles.py as the reference.

Output contract: exactly the points with Euclidean distance <= radius
(boundary inclusive), sorted by point index ascending.
The sorted order is what makes downstream floating-point accumulation
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud


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

    def _encode_inrange(self, cc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Keys for cell coords (m, 3); out-of-range rows are masked out."""
        ok = ((cc >= 0) & (cc < self.dims)).all(axis=1)
        keys = (cc[:, 0] * self.dims[1] + cc[:, 1]) * self.dims[2] + cc[:, 2]
        return keys, ok

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
        keys, ok = self._encode_inrange(nb)
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


def radius_neighbors(index: UniformGridIndex, center, radius: float):
    """Indexed radius query. Returns (indices, distances), indices ascending."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if index.cell_count == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    center = np.asarray(center, dtype=np.float64)
    reach = int(np.ceil(radius / index.cell_size))
    c0 = np.floor((center - index.origin) / index.cell_size).astype(np.int64)
    span = np.arange(-reach, reach + 1, dtype=np.int64)
    offs = np.stack(np.meshgrid(span, span, span, indexing="ij"), axis=-1).reshape(-1, 3)
    keys, ok = index._encode_inrange(c0 + offs)
    pos = np.searchsorted(index.cell_keys, keys[ok])
    pos = np.minimum(pos, index.cell_count - 1)
    pos = pos[index.cell_keys[pos] == keys[ok]]
    if len(pos) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    cand = np.concatenate([
        index.order[s:s + c] for s, c in zip(index.starts[pos], index.counts[pos])
    ])
    cand.sort()
    delta = index.cloud.points[cand] - center
    d2 = delta[:, 0] ** 2 + delta[:, 1] ** 2 + delta[:, 2] ** 2
    keep = d2 <= radius * radius
    return cand[keep], np.sqrt(d2[keep])

