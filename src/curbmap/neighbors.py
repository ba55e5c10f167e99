"""Radius neighbor queries over a fixed point set.

The workhorse is a uniform grid hash: points are binned once into cells
of a fixed size (by default the query radius, so any query touches at
most 27 cells), and each cell gathers its candidates from the
surrounding cell block into one list, ascending by point index. Cell
keys sort one (x, y) column at a time, so each column of that block is
one run of the sorted keys, found by two binary searches. The vote
and the radius count both walk `UniformGridIndex.blocks`, which builds
those lists for CELL_BATCH cells at a time, so their memory scales with
a batch, not with the cloud, and cuts them into blocks of at most
BLOCK_PAIRS pairs. The brute-force linear scan lives in
tests/oracles.py as the reference.

Neighbor contract: exactly the points with Euclidean distance <= radius
(boundary inclusive). A point is its own neighbor, and so is each of its
exact duplicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .dem import _cells_along
from .errors import CurbmapError

# Cells whose candidate lists are built together: bounds the lists alive
# at once, and is the vote's unit of parallel work.
CELL_BATCH = 48
# Receiver-candidate pairs per block: a cell block above it is split by
# octant, and a block still above it is cut into row chunks.
BLOCK_PAIRS = 1 << 16
# ufunc buffer size, in elements, for block_offsets' outer subtraction
_OFFSET_BUFSIZE = 128


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
    starts: np.ndarray      # offset of each cell's slice in `order`, then len(order)
    order: np.ndarray       # point indices grouped by cell

    @property
    def cell_count(self) -> int:
        return len(self.cell_keys)

    def _decode(self, key):
        cz = key % self.dims[2]
        rem = key // self.dims[2]
        return rem // self.dims[1], rem % self.dims[1], cz

    def cell_points(self, slot: int) -> np.ndarray:
        """Point indices in cell `slot`, ascending."""
        return self.order[self.starts[slot]:self.starts[slot + 1]]

    def _candidate_lists(self, slots, radius: float):
        """Candidate lists of the cells `slots`, built together.

        Returns (ptr, candidates): the k-th of `slots` draws from
        candidates[ptr[k]:ptr[k + 1]], the ascending indices of the points
        in every cell within ceil(radius / cell_size) cells of it. Keys
        are (cx * dims[1] + cy) * dims[2] + cz, so the cells of one (x, y)
        column from cz - reach to cz + reach are one run of cell_keys, and
        their points one run of `order`: the lists are one ragged gather of
        runs plus one sort, and memory scales with them, not with the cloud.
        """
        slots = np.asarray(slots, dtype=np.int64)
        reach = int(np.ceil(radius / self.cell_size))
        span = np.arange(-reach, reach + 1, dtype=np.int64)
        cx, cy, cz = self._decode(self.cell_keys[slots])
        nx = (cx[:, None] + span)[:, :, None]
        ny = (cy[:, None] + span)[:, None, :]
        column = (nx * self.dims[1] + ny) * self.dims[2]
        bottom = np.maximum(cz - reach, 0)[:, None, None]
        top = np.minimum(cz + reach, self.dims[2] - 1)[:, None, None]
        first = self.starts[np.searchsorted(self.cell_keys, column + bottom)].ravel()
        stop = self.starts[np.searchsorted(self.cell_keys, column + top, side="right")].ravel()
        inside = ((nx >= 0) & (nx < self.dims[0]) & (ny >= 0) & (ny < self.dims[1])).ravel()
        # column j, of slot j // len(span)**2, draws from order[first[j]:stop[j]]
        run_counts = np.where(inside, stop - first, 0)
        cum = np.concatenate(([0], np.cumsum(run_counts)))
        flat = self.order[np.repeat(first - cum[:-1], run_counts) + np.arange(cum[-1])]
        ptr = cum[::len(span) ** 2]
        n = max(len(self.cloud), 1)
        composite = np.sort(np.repeat(np.arange(len(slots)) * n, np.diff(ptr)) + flat)
        return ptr, composite % n

    def candidate_table(self, radius: float):
        """Candidate lists of every cell: (cell_ptr, candidates).

        Cell `slot` draws from candidates[cell_ptr[slot]:cell_ptr[slot + 1]],
        ascending point indices. The whole table is built on each call;
        the vote and the radius count build theirs a cell batch at a time.
        """
        return self._candidate_lists(np.arange(self.cell_count), radius)

    def cell_candidates(self, slot: int, radius: float) -> np.ndarray:
        """Sorted point indices from all cells within `radius` reach of `slot`."""
        return self._candidate_lists([slot], radius)[1]

    def blocks(self, slots, radius: float):
        """Yield (receivers, candidates) point index blocks for cells `slots`.

        `slots` is a sequence of cell slots. Their candidate lists are
        built CELL_BATCH cells at a time and dropped once walked. Each
        receiver of the cells lands in exactly one block, whose
        candidates are ascending and hold every indexed point within
        `radius` of it. A cell above BLOCK_PAIRS receiver-candidate pairs
        is split by octant, one of its 8 half-size sub-cells. Half cells
        come from build_index's subtraction, and halving the divisor
        doubles the quotient exactly, so each half cell is twice the cell
        plus the octant bit: an octant's receivers share one half cell h
        and keep the candidates within ceil(radius / half cell) half
        cells of h, one row of a single (octants x candidates) mask;
        octants come in ascending order. A block still above BLOCK_PAIRS
        is cut into row chunks, or single rows. Rows are independent, so
        a per-receiver result does not depend on the split.
        """
        half = self.cell_size / 2.0
        reach = math.ceil(radius / half)
        for a in range(0, len(slots), CELL_BATCH):
            batch = slots[a:a + CELL_BATCH]
            ptr, candidates = self._candidate_lists(batch, radius)
            for slot, start, stop in zip(batch, ptr[:-1], ptr[1:]):
                recv = self.cell_points(slot)
                cand = candidates[start:stop]
                parts = [(recv, cand)]
                if len(recv) * len(cand) > BLOCK_PAIRS:
                    parts = self._octants(recv, cand, half, reach)
                for recv, cand in parts:
                    rows = max(1, BLOCK_PAIRS // len(cand))
                    for r in range(0, len(recv), rows):
                        yield recv[r:r + rows], cand

    def _octants(self, recv, cand, half: float, reach: int):
        """A cell's (receivers, candidates) split by octant, octants ascending.

        Its temporaries die on return, before `blocks` builds the next
        batch's candidate lists.
        """
        pts = self.cloud.points
        # take gathers rows faster than fancy indexing does
        hr = np.floor((pts.take(recv, axis=0) - self.origin) / half).astype(np.int64)
        hc = np.floor((pts.take(cand, axis=0) - self.origin) / half).astype(np.int64)
        _, first, which = np.unique((hr & 1) @ np.array([4, 2, 1]),
                                    return_index=True, return_inverse=True)
        # (octants, candidates): within reach of each octant's half cell
        near = np.abs(hc[:, 0] - hr[first, 0, None]) <= reach
        for axis in (1, 2):
            near &= np.abs(hc[:, axis] - hr[first, axis, None]) <= reach
        return [(recv[which == i], cand[n]) for i, n in enumerate(near)]


def build_index(cloud: PointCloud, cell_size: float) -> UniformGridIndex:
    """Bin all points of the cloud into a uniform grid.

    Cell keys are int64, so a cloud whose bounding box spans 2**63 cells
    or more raises CurbmapError.
    """
    if not 0 < cell_size < math.inf:
        raise ValueError(f"cell_size must be positive and finite, got {cell_size}")
    pts = cloud.points
    if len(pts) == 0:
        zero = np.zeros(0, dtype=np.int64)
        return UniformGridIndex(cloud, float(cell_size), np.zeros(3), np.zeros(3, dtype=np.int64),
                                zero, np.zeros(1, dtype=np.int64), zero)
    origin = pts.min(axis=0)
    extent = pts.max(axis=0) - origin
    spans = np.floor(extent / cell_size) + 1
    if not (spans < 2.0 ** 63).all() or math.prod(int(d) for d in spans) >= 2 ** 63:
        raise CurbmapError(f"extent {tuple(extent.tolist())} at cell size {cell_size} "
                           f"needs 2**63 or more grid cells")
    dims = spans.astype(np.int64)
    # (cx * dims[1] + cy) * dims[2] + cz, folded in one axis at a time
    keys = _cells_along(pts, origin, cell_size, 0).astype(np.int64)
    for axis in (1, 2):
        keys *= dims[axis]
        keys += _cells_along(pts, origin, cell_size, axis).astype(np.int64)
    order = np.argsort(keys, kind="stable")
    # a cell starts where the sorted keys change value
    keys = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    return UniformGridIndex(cloud, float(cell_size), origin, dims, keys[starts],
                            np.append(starts, len(keys)), order.astype(np.int64, copy=False))


def block_offsets(rp, cp) -> np.ndarray:
    """Offsets and squared distances of receivers rp (3, k) against candidates cp (3, m).

    Returns one (4, k, m) array: the receiver-minus-candidate offsets dx,
    dy and dz, then d2 = (dx*dx + dy*dy) + dz*dz in that fixed order,
    the linear-scan reference's; IEEE subtraction is sign-symmetric, so
    d2 is the same whichever side is subtracted.

    The three outer subtractions run under a 128-element ufunc buffer,
    set and restored around them alone: candidate rows are a few hundred
    long, and numpy's default buffer of 8,192 elements makes the
    subtraction about three times as costly per element. The buffer
    changes how numpy walks the arrays, not a result byte. numpy keeps
    it per context, so each worker thread sets it for itself.
    """
    # one allocation: freeing it lifts glibc's mmap and trim thresholds above a block's frees
    out = np.empty((4, rp.shape[1], cp.shape[1]))
    bufsize = np.setbufsize(_OFFSET_BUFSIZE)
    try:
        for axis in range(3):
            np.subtract.outer(rp[axis], cp[axis], out=out[axis])
    finally:
        np.setbufsize(bufsize)
    dx, dy, dz, d2 = out
    np.multiply(dx, dx, out=d2)
    d2 += dy * dy
    d2 += dz * dz
    return out


def _count_block(qp, cp, r2: float) -> np.ndarray:
    """For each query of qp (3, k), how many candidates of cp (3, m) lie within r2."""
    return np.count_nonzero(block_offsets(qp, cp)[3] <= r2, axis=1)


def radius_neighbors(index: UniformGridIndex, radius: float) -> np.ndarray:
    """For every indexed point, how many indexed points lie within `radius`.

    The point itself and exact duplicates count; the boundary is
    inclusive. Receivers are counted against their candidates block by
    block, over `index.blocks`, which holds one cell batch's candidate
    lists at a time.
    """
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    points = index.cloud.points
    counts = np.zeros(len(index.cloud), dtype=np.int64)
    r2 = radius * radius
    for recv, cand in index.blocks(range(index.cell_count), radius):
        counts[recv] = _count_block(points[recv].T, points[cand].T, r2)
    return counts
