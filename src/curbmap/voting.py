"""Sparse ball voting and per-point tensor decomposition.

Every point starts as a unit ball tensor (the identity) and casts a ball
vote to each neighbor within the cutoff radius. The vote received at
point p from voter q is

    decay(d, sigma) * (I - u u^T),    u = (p - q) / d,  d = |p - q|,

a positive-semidefinite tensor with eigenvalues (decay, decay, 0) whose
null direction is the connecting line. Accumulated tensors are then
eigendecomposed by LAPACK (np.linalg.eigh); the spectral gaps l1-l2,
l2-l3 and l3 are the stick, plate and ball saliencies, and the leading
eigenvector is the surface normal estimate.

Determinism contract: every point's neighbor contributions are summed in
ascending neighbor index order with a single fixed reduction primitive
(np.add.reduceat), so results are bit-identical across thread counts and
grid cell sizes, and equal to the double-loop reference in
tests/oracles.py.

How work is cut into blocks does not touch that order. The vote walks
`UniformGridIndex.blocks`: each index cell's receivers against the
cell's ascending candidate list, under one pair budget (BLOCK_PAIRS). A
cell above it is split by octant, whose receivers share one half cell
and keep the candidates within reach of it, and a block still above it
is cut into row chunks. Every block lists all in-radius candidates of
its receivers in ascending order, so each receiver hands reduceat the
same values in the same order whatever the split.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .errors import EmptyInputError
from .neighbors import CELL_BATCH, UniformGridIndex, block_offsets, build_index

# Default cutoff multiplier: decay drops below 1e-3 past sigma*sqrt(ln 1000).
CUTOFF_SIGMAS = math.sqrt(math.log(1000.0))

# Tensors per np.linalg.eigh call in decompose_batch, and per decompose_batch
# call in attach_saliencies.
_DECOMPOSE_ROWS = 1024
# Lower-triangle (row, col) of each tensor component, in the column order
# (xx, xy, xz, yy, yz, zz); np.linalg.eigh reads only that triangle.
_LOWER = ((0, 1, 2, 1, 2, 2), (0, 0, 0, 1, 1, 2))


@dataclass(frozen=True)
class VotingParams:
    """Knobs of the sparse voting pass.

    sigma: decay scale in meters. cutoff: neighbor truncation radius
    (defaults to sigma * sqrt(ln 1000), beyond which decay <= 1e-3).
    """

    sigma: float = 0.3
    cutoff: float | None = None
    # not a field: every point keeps its unit ball; perfbench's saliency
    # oracle is the only reader, until it reads the run report
    include_self = True

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if self.cutoff is None:
            object.__setattr__(self, "cutoff", self.sigma * CUTOFF_SIGMAS)
        if not 0 < self.cutoff < math.inf:
            raise ValueError(f"cutoff must be positive and finite, got {self.cutoff}")


def decay(d, sigma: float):
    """Gaussian distance attenuation exp(-d^2 / sigma^2)."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    d = np.asarray(d, dtype=np.float64)
    out = np.exp(-(d * d) / (sigma * sigma))
    return float(out) if out.ndim == 0 else out


def _reduce_block(rp, cp, r2: float, s2: float) -> tuple[np.ndarray, int]:
    """Votes for a block of receivers against their shared candidates.

    rp (3, k) and cp (3, m) hold receiver and candidate coordinates, the
    candidates in ascending point index order. Offsets are receiver
    minus candidate. Pairs outside the cutoff and coincident pairs
    (d = 0: the receiver itself, or an exact duplicate point) contribute
    nothing. Returns the (k, 6) accumulated tensors and the number of
    in-radius pairs.

    The surviving contributions are laid out as one contiguous (6, p)
    array, one row per component and the columns grouped by receiver,
    and each receiver's sum runs over its candidates left to right via
    one np.add.reduceat call, whose row offsets are read off the flat
    index of the in-radius pairs. Every per-pair value is computed with a
    fixed operand order, so a receiver
    gets the same bytes from any block that lists the same in-radius
    candidates in the same order: that is what makes the result
    independent of how receivers and candidates are split into blocks
    or threads.
    """
    k, m = rp.shape[1], cp.shape[1]
    offsets = block_offsets(rp, cp)
    mask = offsets[3] <= r2
    mask &= offsets[3] > 0.0
    flat = np.flatnonzero(mask)
    out = np.zeros((k, 6))
    if len(flat) == 0:
        return out, 0
    ux, uy, uz, d2 = (plane.take(flat) for plane in offsets)
    del offsets, mask   # free the (k, m) block before the per-pair arrays
    w = np.negative(d2)
    w /= s2
    np.exp(w, out=w)
    inv = np.sqrt(d2, out=d2)
    np.divide(1.0, inv, out=inv)
    ux *= inv
    uy *= inv
    uz *= inv
    contrib = np.empty((6, len(w)))
    nw = np.negative(w, out=inv)
    for row, u in ((0, ux), (3, uy), (5, uz)):          # w * (1 - u*u)
        np.multiply(u, u, out=contrib[row])
        np.subtract(1.0, contrib[row], out=contrib[row])
        contrib[row] *= w
    np.multiply(nw, ux, out=contrib[1])                  # ((-w) * ux) * uy
    np.multiply(contrib[1], uz, out=contrib[2])          # ((-w) * ux) * uz
    contrib[1] *= uy
    np.multiply(nw, uy, out=contrib[4])                  # ((-w) * uy) * uz
    contrib[4] *= uz
    # flat is row-major, so row i's pairs start where flat reaches i * m
    bounds = np.searchsorted(flat, np.arange(0, (k + 1) * m, m))
    nonzero = bounds[1:] > bounds[:-1]
    out[nonzero] = np.add.reduceat(contrib, bounds[:-1][nonzero], axis=1).T
    return out, len(flat)


def sparse_vote(
    cloud: PointCloud,
    index: UniformGridIndex,
    params: VotingParams,
    threads: int = 1,
    counts: dict | None = None,
) -> np.ndarray:
    """Accumulate ball votes over the whole cloud. Returns (n, 6) tensors.

    Candidates come from each index cell's surrounding cell block. Work
    is split into fixed batches of CELL_BATCH cells whose outputs are
    disjoint, so any thread count yields the same bytes. Each task
    builds its batch's candidate lists and drops them when done, so
    memory beyond the (n, 6) output scales with a batch, not the cloud.

    A `counts` dict receives vote_blocks, vote_pairs_examined (receivers
    x candidates), vote_pairs_in_radius (0 < d <= cutoff) and
    vote_max_block_pairs over `index.blocks`, each batch summing its
    own blocks, so they read the same at every thread count.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    n = len(cloud)
    if n == 0:
        raise EmptyInputError("cannot vote over an empty cloud")
    points = cloud.points
    r2 = params.cutoff * params.cutoff
    s2 = params.sigma * params.sigma
    out = np.zeros((n, 6))

    def vote_cells(batch):
        """Vote the batch's cells; returns its blocks, pairs examined and in
        radius, and largest block."""
        blocks = examined = in_radius = largest = 0
        for recv, cand in index.blocks(batch, params.cutoff):
            out[recv], hits = _reduce_block(points[recv].T, points[cand].T, r2, s2)
            pairs = len(recv) * len(cand)
            blocks, examined, in_radius = blocks + 1, examined + pairs, in_radius + hits
            largest = max(largest, pairs)
        return blocks, examined, in_radius, largest

    slots = range(index.cell_count)
    batches = [slots[a:a + CELL_BATCH] for a in range(0, index.cell_count, CELL_BATCH)]
    if threads == 1:
        tallies = [vote_cells(batch) for batch in batches]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            tallies = list(pool.map(vote_cells, batches))
    if counts is not None:
        blocks, examined, in_radius, largest = zip(*tallies)
        counts.update(vote_blocks=sum(blocks), vote_pairs_examined=sum(examined),
                      vote_pairs_in_radius=sum(in_radius), vote_max_block_pairs=max(largest))
    for col in (0, 3, 5):   # the unit ball, last, in place: no fancy-indexed copy
        out[:, col] += 1.0
    return out


def decompose_batch(t6: np.ndarray):
    """Eigendecompose (n, 6) symmetric tensors with np.linalg.eigh.

    Components are in the column order (xx, xy, xz, yy, yz, zz). Returns
    (eigenvalues (n, 3) sorted descending, eigenvectors (n, 3, 3) with row
    k the unit eigenvector of eigenvalue k). Each eigenvector is signed so
    that its largest-magnitude component is positive, the first one on a
    tie. A repeated eigenvalue has no preferred basis; its rows are then
    some orthonormal completion. Every tensor is decomposed on its own,
    so a row's result does not depend on the rest of the batch; rows go
    through eigh _DECOMPOSE_ROWS at a time, which keeps the working
    arrays at a chunk's size and the peak near the output's.
    """
    t6 = np.atleast_2d(np.asarray(t6, dtype=np.float64))
    if not np.isfinite(t6).all():
        raise ValueError("tensor components must be finite")
    n = len(t6)
    lam = np.empty((n, 3))
    vecs = np.empty((n, 3, 3))
    for a in range(0, n, _DECOMPOSE_ROWS):
        b = min(a + _DECOMPOSE_ROWS, n)
        mats = np.zeros((b - a, 3, 3))
        mats[:, _LOWER[0], _LOWER[1]] = t6[a:b]
        w, cols = np.linalg.eigh(mats)  # ascending, eigenvectors in columns
        lam[a:b] = w[:, ::-1]
        v = vecs[a:b]
        v[...] = cols[:, :, ::-1].swapaxes(1, 2)
        lead = np.take_along_axis(v, np.abs(v).argmax(axis=2)[..., None], axis=2)
        np.negative(v, out=v, where=lead < 0.0)
    return lam, vecs


def saliencies(eigenvalues: np.ndarray):
    """Spectral gaps of descending eigenvalues: (stick, plate, ball)."""
    lam = np.asarray(eigenvalues)
    return lam[..., 0] - lam[..., 1], lam[..., 1] - lam[..., 2], lam[..., 2]


def attach_saliencies(cloud: PointCloud, tensors: np.ndarray) -> PointCloud:
    """Decompose (n, 6) vote tensors and attach the saliency channels.

    Adds channels stick, plate, ball, nx, ny, nz (components of the
    leading eigenvector) and zsal = |nz| * stick, the vertical component
    of the stick-weighted normal, which separates ground-like points from
    everything else. The tensors go through decompose_batch
    _DECOMPOSE_ROWS rows at a time, each chunk written straight into the
    seven channels, so the eigenvalues and eigenvectors exist only a
    chunk at a time; rows decompose independently, so the bytes are
    those of one whole-array call.
    """
    tensors = np.asarray(tensors, dtype=np.float64)
    n = len(tensors)
    stick, plate, ball, nx, ny, nz, zsal = (np.empty(n) for _ in range(7))
    for a in range(0, n, _DECOMPOSE_ROWS):
        b = min(a + _DECOMPOSE_ROWS, n)
        lam, vecs = decompose_batch(tensors[a:b])
        stick[a:b], plate[a:b], ball[a:b] = saliencies(lam)
        nx[a:b], ny[a:b], nz[a:b] = vecs[:, 0, :].T
        np.abs(nz[a:b], out=zsal[a:b])
        zsal[a:b] *= stick[a:b]
    return cloud.with_channels(stick=stick, plate=plate, ball=ball,
                               nx=nx, ny=ny, nz=nz, zsal=zsal)


def saliency_field(cloud: PointCloud, params: VotingParams, threads: int = 1) -> PointCloud:
    """Index, sparse_vote and attach_saliencies in one call."""
    index = build_index(cloud, params.cutoff)
    return attach_saliencies(cloud, sparse_vote(cloud, index, params, threads=threads))
