"""Batched eigendecomposition of symmetric 3x3 tensors.

The fast path is the closed-form solution of the characteristic
polynomial (trigonometric form) with eigenvectors recovered from the
matrix products (A - l2 I)(A - l3 I) and (A - l1 I)(A - l2 I), whose
columns span the first and third eigendirections. The triad is then
orthonormalized exactly, so orthogonality never degrades even when the
directions themselves are poorly conditioned.

A vectorized cyclic-Jacobi sweep serves as the robustness fallback. It
is engaged for tensors whose eigenvalue gaps fall below 1e-7 of the
trace, and additionally for any tensor whose closed-form reconstruction
residual exceeds the accuracy budget. Repeated-eigenvalue tensors have
no preferred basis; any orthonormal completion is returned for those.

Symmetric tensors are stored as 6 components in the column order
(xx, xy, xz, yy, yz, zz).
"""

from __future__ import annotations

import numpy as np

SYM_COMPONENTS = ("xx", "xy", "xz", "yy", "yz", "zz")

# Closed-form residual above this (Frobenius, absolute) triggers Jacobi.
_RESIDUAL_BUDGET = 5e-10
_GAP_FRACTION = 1e-7
_JACOBI_SWEEPS = 12


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


def _eigenvalues_closed_form(t6: np.ndarray):
    xx, xy, xz, yy, yz, zz = (t6[:, i] for i in range(6))
    tr = xx + yy + zz
    q = tr / 3.0
    p1 = xy * xy + xz * xz + yz * yz
    dx, dy, dz = xx - q, yy - q, zz - q
    p2 = dx * dx + dy * dy + dz * dz + 2.0 * p1
    p = np.sqrt(np.maximum(p2 / 6.0, 0.0))
    scale = np.maximum(np.abs(tr), np.sqrt(p2))
    iso = p <= 1e-14 * np.maximum(scale, 1e-300)
    ps = np.where(iso, 1.0, p)
    bxx, byy, bzz = dx / ps, dy / ps, dz / ps
    bxy, bxz, byz = xy / ps, xz / ps, yz / ps
    half_det = 0.5 * (
        bxx * (byy * bzz - byz * byz)
        - bxy * (bxy * bzz - byz * bxz)
        + bxz * (bxy * byz - byy * bxz)
    )
    phi = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    l1 = q + 2.0 * p * np.cos(phi)
    l3 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    l2 = 3.0 * q - l1 - l3
    lam = np.stack([l1, l2, l3], axis=1)
    lam[iso] = q[iso, None]
    return lam, tr, iso


def _strongest_column(m: np.ndarray):
    """Column of largest norm per matrix in an (n, 3, 3) batch."""
    norms2 = np.einsum("nij,nij->nj", m, m)
    pick = np.argmax(norms2, axis=1)
    rows = np.arange(len(m))
    return m[rows, :, pick], np.sqrt(norms2[rows, pick])


def _vectors_from_products(mats: np.ndarray, lam: np.ndarray):
    eye = np.eye(3)
    p1 = (mats - lam[:, 1, None, None] * eye) @ (mats - lam[:, 2, None, None] * eye)
    e1, n1 = _strongest_column(p1)
    p3 = (mats - lam[:, 0, None, None] * eye) @ (mats - lam[:, 1, None, None] * eye)
    v3, n3 = _strongest_column(p3)
    tiny = 1e-300
    e1 = e1 / np.maximum(n1, tiny)[:, None]
    v3 = v3 - np.einsum("ni,ni->n", v3, e1)[:, None] * e1
    n3b = np.sqrt(np.einsum("ni,ni->n", v3, v3))
    e3 = v3 / np.maximum(n3b, tiny)[:, None]
    e2 = np.cross(e3, e1)
    vecs = np.stack([e1, e2, e3], axis=1)
    degenerate = (n1 <= tiny) | (n3b <= tiny)
    return vecs, degenerate


def _jacobi(mats: np.ndarray):
    """Fixed-sweep cyclic Jacobi over a batch of symmetric 3x3 matrices."""
    m = len(mats)
    a = mats.copy()
    v = np.tile(np.eye(3), (m, 1, 1))
    for _ in range(_JACOBI_SWEEPS):
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = a[:, p, q]
            theta = 0.5 * np.arctan2(2.0 * apq, a[:, q, q] - a[:, p, p])
            c, s = np.cos(theta), np.sin(theta)
            rot = np.tile(np.eye(3), (m, 1, 1))
            rot[:, p, p] = c
            rot[:, q, q] = c
            rot[:, p, q] = s
            rot[:, q, p] = -s
            a = np.swapaxes(rot, 1, 2) @ a @ rot
            v = v @ rot
    lam = np.stack([a[:, 0, 0], a[:, 1, 1], a[:, 2, 2]], axis=1)
    ordering = np.argsort(-lam, axis=1, kind="stable")
    lam = np.take_along_axis(lam, ordering, axis=1)
    vecs = np.take_along_axis(np.swapaxes(v, 1, 2), ordering[:, :, None], axis=1)
    return lam, vecs


def _apply_sign_convention(vecs: np.ndarray) -> np.ndarray:
    """Flip each eigenvector so its largest-magnitude component is positive.

    argmax takes the first maximal component, which settles ties.
    """
    flat = vecs.reshape(-1, 3)
    lead = np.take_along_axis(flat, np.argmax(np.abs(flat), axis=1)[:, None], axis=1)[:, 0]
    flat = np.where((lead < 0.0)[:, None], -flat, flat)
    return flat.reshape(vecs.shape)


def eig3_batch(t6: np.ndarray):
    """Decompose a batch of symmetric tensors.

    Returns (eigenvalues (n, 3) sorted descending, eigenvectors (n, 3, 3)
    with row k the unit eigenvector of eigenvalue k).
    """
    t6 = np.atleast_2d(np.asarray(t6, dtype=np.float64))
    if not np.isfinite(t6).all():
        raise ValueError("tensor components must be finite")
    lam, tr, iso = _eigenvalues_closed_form(t6)
    mats = sym_to_matrices(t6)
    vecs, degenerate = _vectors_from_products(mats, lam)

    rec = np.einsum("nk,nki,nkj->nij", lam, vecs, vecs)
    residual = np.sqrt(((rec - mats) ** 2).sum(axis=(1, 2)))
    gap_floor = _GAP_FRACTION * np.abs(tr)
    needs_jacobi = (
        iso
        | degenerate
        | (lam[:, 0] - lam[:, 1] < gap_floor)
        | (lam[:, 1] - lam[:, 2] < gap_floor)
        | (residual > _RESIDUAL_BUDGET)
    )
    if needs_jacobi.any():
        lam_j, vecs_j = _jacobi(mats[needs_jacobi])
        lam[needs_jacobi] = lam_j
        vecs[needs_jacobi] = vecs_j
    return lam, _apply_sign_convention(vecs)
