"""Independent reference implementations used to validate the library.

Everything here is deliberately written against the math, not against
the production code paths: a pivot-driven scalar Jacobi eigensolver, a
spherical-quadrature realization of the ball vote as an integral of
rotated stick votes, a plain double-loop voting pass, a per-octant
block walk, a per-block count of the vote's pairs, a linear-scan
radius query and the per-candidate outlier filter built on it, the xy
cell binning, a per-cell loop of lower medians for the DEM grids, and a
per-cell loop that refills the refined DEM's invalidated cells. The
only shared primitive is np.add.reduceat, whose per-segment reduction
is the pipeline's documented deterministic summation.

The text cloud reader and writer here are the row-by-row and
value-by-value forms of `parse_cloud`, `write_cloud` and the float text
kernel `_float_text`: one Python float conversion per token, one repr
per value. The vectorised library paths must match them byte for byte
and error for error.
"""

from __future__ import annotations

import math

import numpy as np

from curbmap import EmptyInputError, ParseError, ParseSummary, PointCloud, neighbors
from curbmap.dem import NODATA, DemGrid


def jacobi_eigenvalues(matrix: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    """Eigenvalues of a symmetric 3x3 matrix by classical Jacobi rotation.

    Pivots on the largest off-diagonal element until convergence.
    Returns eigenvalues sorted descending.
    """
    a = np.array(matrix, dtype=np.float64)
    scale = max(abs(a).max(), 1e-300)
    for _ in range(200):
        off = [(abs(a[0, 1]), 0, 1), (abs(a[0, 2]), 0, 2), (abs(a[1, 2]), 1, 2)]
        largest, p, q = max(off)
        if largest <= tol * scale:
            break
        if a[p, p] == a[q, q]:
            theta = math.pi / 4.0
        else:
            theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
        c, s = math.cos(theta), math.sin(theta)
        rot = np.eye(3)
        rot[p, p] = c
        rot[q, q] = c
        rot[p, q] = s
        rot[q, p] = -s
        a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


def ball_vote_quadrature(receiver, voter, sigma: float,
                         n_azimuth: int = 64, n_polar: int = 64) -> np.ndarray:
    """Ball vote as an angular integral of rotated stick votes.

    A voter of unknown orientation is modeled as a stick tensor swept
    over every direction of the sphere. A stick with normal n casts its
    planar-continuation vote toward the receiver: the surface through
    both points must have its normal perpendicular to the connecting
    line, so the received orientation is the projection of n onto that
    plane. The integral of the projected stick tensors over the sphere,
    weighted by the distance decay, is evaluated with a midpoint product
    rule over azimuth and polar angles.
    """
    receiver = np.asarray(receiver, dtype=np.float64)
    voter = np.asarray(voter, dtype=np.float64)
    delta = receiver - voter
    d = float(np.linalg.norm(delta))
    if d == 0.0:
        raise ValueError("coincident points")
    radial = delta / d
    proj = np.eye(3) - np.outer(radial, radial)

    az = (np.arange(n_azimuth) + 0.5) * (2.0 * np.pi / n_azimuth)
    pol = (np.arange(n_polar) + 0.5) * (np.pi / n_polar)
    azg, polg = np.meshgrid(az, pol, indexing="ij")
    normals = np.stack([
        np.sin(polg) * np.cos(azg),
        np.sin(polg) * np.sin(azg),
        np.cos(polg),
    ], axis=-1).reshape(-1, 3)
    weights = np.sin(polg).reshape(-1)

    projected = normals @ proj
    accum = np.einsum("n,ni,nj->ij", weights, projected, projected)
    accum /= weights.sum()
    return math.exp(-(d * d) / (sigma * sigma)) * accum


def double_loop_vote(points: np.ndarray, sigma: float, cutoff: float) -> np.ndarray:
    """Reference sparse voting: an explicit loop over every receiver.

    For receiver i, every other point j is examined in ascending index
    order; contributions inside the cutoff are reduced with one
    np.add.reduceat call per receiver, and each point's unit ball is
    added last.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    out = np.zeros((n, 6))
    r2 = cutoff * cutoff
    s2 = sigma * sigma
    for i in range(n):
        dx = points[i, 0] - points[:, 0]
        dy = points[i, 1] - points[:, 1]
        dz = points[i, 2] - points[:, 2]
        d2 = dx * dx
        d2 += dy * dy
        d2 += dz * dz
        mask = (d2 > 0.0) & (d2 <= r2)
        d2m = d2[mask]
        w = np.exp(-d2m / s2)
        inv = 1.0 / np.sqrt(d2m)
        ux = dx[mask] * inv
        uy = dy[mask] * inv
        uz = dz[mask] * inv
        contrib = np.empty((len(w), 6))
        contrib[:, 0] = w * (1.0 - ux * ux)
        contrib[:, 1] = -w * ux * uy
        contrib[:, 2] = -w * ux * uz
        contrib[:, 3] = w * (1.0 - uy * uy)
        contrib[:, 4] = -w * uy * uz
        contrib[:, 5] = w * (1.0 - uz * uz)
        if len(w):
            out[i] = np.add.reduceat(contrib, [0], axis=0)[0]
    out[:, (0, 3, 5)] += 1.0
    return out


def reference_blocks(index, slots, radius: float):
    """Per-cell, per-octant block walk: the reference for `UniformGridIndex.blocks`.

    A cell above neighbors.BLOCK_PAIRS receiver-candidate pairs is split
    one octant at a time, in ascending octant order: the octant's
    receivers, and the candidates within ceil(radius / half cell) half
    cells of the first receiver's half cell on every axis. Each part is
    then cut into chunks of max(1, BLOCK_PAIRS // candidates) rows.
    """
    half = index.cell_size / 2.0
    reach = math.ceil(radius / half)
    pts = index.cloud.points
    for slot in slots:
        recv = index.cell_points(slot)
        cand = index.cell_candidates(slot, radius)
        parts = [(recv, cand)]
        if len(recv) * len(cand) > neighbors.BLOCK_PAIRS:
            hr = np.floor((pts[recv] - index.origin) / half).astype(np.int64)
            hc = np.floor((pts[cand] - index.origin) / half).astype(np.int64)
            octant = (hr & 1) @ np.array([4, 2, 1])
            parts = []
            for o in np.unique(octant):
                sel = octant == o
                near = (np.abs(hc - hr[sel][0]) <= reach).all(axis=1)
                parts.append((recv[sel], cand[near]))
        for recv, cand in parts:
            rows = max(1, neighbors.BLOCK_PAIRS // len(cand))
            for r in range(0, len(recv), rows):
                yield recv[r:r + rows], cand


def count_vote_pairs(index, cutoff: float) -> dict[str, int]:
    """Reference vote counters: walk `index.blocks` and count each block's pairs.

    Counts the blocks, the receiver x candidate pairs examined, those
    with 0 < d <= cutoff by a direct distance pass over each block, and
    the largest block, under the keys sparse_vote's `counts` uses.
    """
    counts = {"vote_blocks": 0, "vote_pairs_examined": 0, "vote_pairs_in_radius": 0,
              "vote_max_block_pairs": 0}
    coords = np.ascontiguousarray(index.cloud.points.T)
    for recv, cand in index.blocks(range(index.cell_count), cutoff):
        pairs = len(recv) * len(cand)
        d2 = sum(np.subtract.outer(coords[a, recv], coords[a, cand]) ** 2 for a in range(3))
        counts["vote_blocks"] += 1
        counts["vote_pairs_examined"] += pairs
        counts["vote_pairs_in_radius"] += int(np.count_nonzero((d2 > 0.0) & (d2 <= cutoff ** 2)))
        counts["vote_max_block_pairs"] = max(counts["vote_max_block_pairs"], pairs)
    return counts


def brute_force_neighbors(cloud: PointCloud, center, radius: float):
    """Linear-scan radius query: the reference for `radius_neighbors`.

    Returns (indices, distances) of every point within `radius`
    (boundary inclusive), indices ascending.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    center = np.asarray(center, dtype=np.float64)
    if len(cloud) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    delta = cloud.points - center
    d2 = delta[:, 0] ** 2 + delta[:, 1] ** 2 + delta[:, 2] ** 2
    keep = np.flatnonzero(d2 <= radius * radius)
    return keep, np.sqrt(d2[keep])


def reference_outlier_removal(cloud: PointCloud, candidates, radius: float,
                              min_neighbors: int) -> np.ndarray:
    """Per-candidate linear scans: the reference for `outlier_removal`.

    A candidate survives when at least min_neighbors other candidates
    lie within radius (boundary inclusive); exact duplicates count.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    sub = PointCloud(cloud.points[candidates])
    keep = np.zeros(len(candidates), dtype=bool)
    for k in range(len(candidates)):
        found, _ = brute_force_neighbors(sub, sub.points[k], radius)
        keep[k] = len(found) - 1 >= min_neighbors
    return candidates[keep]


def bin_cells(xy, origin, cell: float):
    """(row, col) of the cells of side `cell` from `origin` holding each xy:
    floor((xy - origin) / cell), the binning `dem.occupied_cells` and
    `dem.ground_heights` fold into one key."""
    col, row = np.floor((np.asarray(xy)[:, :2] - np.asarray(origin)) / cell).astype(np.int64).T
    return row, col


def reference_median_grid(xy, values, origin, cell: float, min_count: int):
    """One cell at a time: the reference for `dem._median_grid`.

    Returns (heights, valid) with the same meaning: each cell's
    ceil(n/2)-th smallest value when it holds at least min_count values
    (NODATA otherwise), and whether it does.
    """
    col = np.floor((xy[:, 0] - origin[0]) / cell).astype(np.int64)
    row = np.floor((xy[:, 1] - origin[1]) / cell).astype(np.int64)
    nrows, ncols = int(row.max()) + 1, int(col.max()) + 1
    heights = np.full((nrows, ncols), NODATA)
    valid = np.zeros((nrows, ncols), dtype=bool)
    key = row * ncols + col
    order = np.argsort(key, kind="stable")
    for seg in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        if len(seg) < min_count:
            continue
        r, c = int(row[seg[0]]), int(col[seg[0]])
        k = (len(seg) - 1) // 2
        heights[r, c] = float(np.partition(values[seg], k)[k])
        valid[r, c] = True
    return heights, valid


# 3x3 interpolation kernel of `dem.refine_dem`, in its summation order.
_NEIGHBORS = [((-1, -1), 1.0), ((-1, 0), 2.0), ((-1, 1), 1.0), ((0, -1), 2.0),
              ((0, 1), 2.0), ((1, -1), 1.0), ((1, 0), 2.0), ((1, 1), 1.0)]


def reference_refine_dem(height_grid: DemGrid, coarse_cell: float, refined_cell: float,
                         consistency: float) -> DemGrid:
    """Dense index grids and one invalidated cell at a time: the
    reference for `dem.refine_dem`.

    The refined and coarse grids are `reference_median_grid`s of the
    valid fine cells' centers. A refined cell deviating from its coarse
    cell by more than consistency is invalidated; it is refilled with
    the weighted mean of its consistent 8-neighbors, summed in
    `_NEIGHBORS` order, when at least two exist and the mean itself
    passes the consistency check.
    """
    rows, cols = np.nonzero(height_grid.valid)
    if len(rows) == 0:
        raise EmptyInputError("height grid has no valid cells")
    x0, y0 = height_grid.origin
    centers = np.column_stack([
        x0 + (cols + 0.5) * height_grid.cell,
        y0 + (rows + 0.5) * height_grid.cell,
    ])
    values = height_grid.heights[rows, cols]
    ref_h, ref_valid = reference_median_grid(centers, values, (x0, y0), refined_cell, 1)
    coarse_h, coarse_valid = reference_median_grid(centers, values, (x0, y0), coarse_cell, 1)
    nrows, ncols = ref_h.shape
    ry, rx = np.mgrid[0:nrows, 0:ncols]
    ccol = np.floor((x0 + (rx + 0.5) * refined_cell - x0) / coarse_cell).astype(np.int64)
    crow = np.floor((y0 + (ry + 0.5) * refined_cell - y0) / coarse_cell).astype(np.int64)
    ccol = np.clip(ccol, 0, coarse_h.shape[1] - 1)
    crow = np.clip(crow, 0, coarse_h.shape[0] - 1)
    coarse_of = coarse_h[crow, ccol]
    coarse_ok = coarse_valid[crow, ccol]

    consistent = ref_valid & coarse_ok & (np.abs(ref_h - coarse_of) <= consistency)
    out_h = np.where(consistent, ref_h, NODATA)
    out_valid = consistent.copy()
    for r, c in zip(*np.nonzero(ref_valid & ~consistent)):
        acc = wsum = 0.0
        nn = 0
        for (dr, dc), w in _NEIGHBORS:
            rr, cc = r + dr, c + dc
            if 0 <= rr < nrows and 0 <= cc < ncols and consistent[rr, cc]:
                acc += w * ref_h[rr, cc]
                wsum += w
                nn += 1
        if nn >= 2:
            filled = acc / wsum
            if coarse_ok[r, c] and abs(filled - coarse_of[r, c]) <= consistency:
                out_h[r, c] = filled
                out_valid[r, c] = True
    return DemGrid((x0, y0), float(refined_cell), out_h, out_valid)


def sym_to_matrices(t6: np.ndarray) -> np.ndarray:
    """(n, 6) component rows -> (n, 3, 3) full symmetric matrices."""
    t6 = np.atleast_2d(np.asarray(t6, dtype=np.float64))
    n = t6.shape[0]
    m = np.empty((n, 3, 3))
    m[:, 0, 0] = t6[:, 0]
    m[:, 0, 1] = m[:, 1, 0] = t6[:, 1]
    m[:, 0, 2] = m[:, 2, 0] = t6[:, 2]
    m[:, 1, 1] = t6[:, 3]
    m[:, 1, 2] = m[:, 2, 1] = t6[:, 4]
    m[:, 2, 2] = t6[:, 5]
    return m


def matrices_to_sym(m: np.ndarray) -> np.ndarray:
    """(n, 3, 3) symmetric matrices -> (n, 6) component rows."""
    m = np.asarray(m, dtype=np.float64)
    return np.stack(
        [m[..., 0, 0], m[..., 0, 1], m[..., 0, 2], m[..., 1, 1], m[..., 1, 2], m[..., 2, 2]],
        axis=-1,
    )


def frobenius(matrix: np.ndarray) -> float:
    return float(np.sqrt((np.asarray(matrix) ** 2).sum()))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation from a QR factorization."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


_PCD_KEYWORDS = ("VERSION", "FIELDS", "SIZE", "TYPE", "COUNT",
                 "WIDTH", "HEIGHT", "VIEWPOINT", "POINTS", "DATA")


def reference_parse_cloud(source, fmt: str):
    """Row-loop text parser: the reference for `parse_cloud`.

    Lines are read in file order and each row's tokens are converted one
    float at a time, so the first bad row raises. PCD header checks beyond
    FIELDS, COUNT values and POINTS are not made here.
    """
    text = source.decode("utf-8", errors="replace") if isinstance(source, bytes) else source
    lines = text.splitlines()
    if fmt == "xyz":
        rows, rejected, total, width = _reference_rows(lines, 0, None, skip_comments=True)
        return _reference_assemble(rows, [f"extra{k}" for k in range((width or 3) - 3)],
                                   rejected, total)
    header, data_start = {}, None   # keyword -> (its line, its values)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, *rest = line.split(None, 1)
        key, rest = key.upper(), "".join(rest)
        if key not in _PCD_KEYWORDS:
            raise ParseError(f"unexpected header keyword {key!r}", line=lineno)
        header[key] = lineno, rest.split()
        if key == "DATA":
            if rest.strip().lower() != "ascii":
                raise ParseError(f"only DATA ascii is supported, got {rest!r}", line=lineno)
            data_start = lineno
            break
    if data_start is None:
        raise ParseError("missing DATA line", line=len(lines))
    for required in ("FIELDS", "POINTS"):
        if required not in header:
            raise ParseError(f"missing {required} header", line=data_start)
    fields_line, fields = header["FIELDS"]
    if fields[:3] != ["x", "y", "z"]:
        raise ParseError(f"FIELDS must start with x y z, got {fields}", line=fields_line)
    count_line, counts = header.get("COUNT", (None, []))
    if any(c != "1" for c in counts):
        raise ParseError("multi-count fields are not supported", line=count_line)
    points_line, points = header["POINTS"]
    try:
        declared = int(points[0])
    except (ValueError, IndexError):
        raise ParseError("POINTS must be an integer", line=points_line) from None
    rows, rejected, total, _ = _reference_rows(lines, data_start, len(fields),
                                               skip_comments=False)
    if total != declared:
        raise ParseError(f"POINTS declares {declared} rows but data has {total}",
                         line=data_start)
    return _reference_assemble(rows, fields[3:], rejected, total)


def _reference_rows(lines, start, width, skip_comments):
    rows, rejected, total = [], [], 0
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        line = raw.strip()
        if not line or (skip_comments and line.startswith("#")):
            continue
        parts = line.split()
        if width is None:
            width = len(parts)
            if width < 3:
                raise ParseError("XYZ rows need at least 3 columns", line=lineno)
        total += 1
        if len(parts) < width:
            raise ParseError(f"expected {width} columns, got {len(parts)}", line=lineno)
        values = []
        for part in parts[:width]:
            try:
                values.append(float(part))
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
        if all(math.isfinite(v) for v in values[:3]):
            rows.append(values)
        else:
            rejected.append(lineno)
    return rows, rejected, total, width


def _reference_assemble(rows, extra_names, rejected, total):
    data = np.array(rows, dtype=np.float64).reshape(len(rows), 3 + len(extra_names))
    channels = {name: data[:, 3 + k] for k, name in enumerate(extra_names)}
    return PointCloud(data[:, :3], channels), ParseSummary(total, rejected)


def reference_float_rows(columns) -> bytes:
    """Value-by-value float text: the reference for `_float_text`.

    Every value is written as repr(float(value)), values joined by one
    space, rows ended by a newline.
    """
    rows = range(len(columns[0]))
    return "".join(" ".join(repr(float(col[i])) for col in columns) + "\n"
                   for i in rows).encode()


def reference_write_cloud(cloud: PointCloud, fmt: str) -> bytes:
    """Value-by-value text writer: the reference for `write_cloud`.

    The body is `reference_float_rows` of x, y, z and the
    channels; PCD adds the fixed 10-line header.
    """
    names = list(cloud.channels)
    columns = [cloud.points[:, 0], cloud.points[:, 1], cloud.points[:, 2]]
    columns += [cloud.channels[name] for name in names]
    body = reference_float_rows(columns)
    if fmt == "xyz":
        return body
    n_fields = 3 + len(names)
    header = [
        "VERSION .7",
        "FIELDS " + " ".join(["x", "y", "z", *names]),
        "SIZE" + " 8" * n_fields,
        "TYPE" + " F" * n_fields,
        "COUNT" + " 1" * n_fields,
        f"WIDTH {len(cloud)}",
        "HEIGHT 1",
        "VIEWPOINT 0 0 0 1 0 0 0",
        f"POINTS {len(cloud)}",
        "DATA ascii",
    ]
    return ("\n".join(header) + "\n").encode() + body
