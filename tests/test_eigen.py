import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curbmap import decompose_batch, saliencies

from oracles import jacobi_eigenvalues, matrices_to_sym, sym_to_matrices

component = st.floats(min_value=-10, max_value=10, allow_nan=False)


def random_psd(rng, n, scale_hi=3.0):
    q, _ = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    d = rng.uniform(0.0, scale_hi, size=(n, 3))
    mats = np.einsum("nij,nj,nkj->nik", q, d, q)
    return matrices_to_sym(mats), mats


def reconstruct(lam, vecs):
    return np.einsum("nk,nki,nkj->nij", lam, vecs, vecs)


class TestTrivialCases:
    def test_identity(self):
        lam, _ = decompose_batch(np.array([[1.0, 0, 0, 1.0, 0, 1.0]]))
        assert np.allclose(lam[0], [1, 1, 1], atol=1e-12)
        stick, plate, ball = saliencies(lam[0])
        assert abs(stick) < 1e-12 and abs(plate) < 1e-12 and abs(ball - 1) < 1e-12

    def test_diagonal_321(self):
        lam, vecs = decompose_batch(np.array([[3.0, 0, 0, 2.0, 0, 1.0]]))
        assert np.allclose(lam[0], [3, 2, 1], atol=1e-12)
        assert np.allclose(np.abs(vecs[0, 0]), [1, 0, 0], atol=1e-12)
        assert np.allclose(np.abs(vecs[0, 2]), [0, 0, 1], atol=1e-12)
        stick, plate, ball = saliencies(lam[0])
        assert np.allclose([stick, plate, ball], [1, 1, 1], atol=1e-12)

    def test_zero_tensor(self):
        lam, vecs = decompose_batch(np.zeros((1, 6)))
        assert np.allclose(lam[0], 0.0)
        assert np.allclose(vecs[0] @ vecs[0].T, np.eye(3), atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            decompose_batch(np.array([[np.inf, 0, 0, 1, 0, 1]]))


class TestRandomBatch:
    def test_reconstruction_and_oracle_agreement(self, rng):
        t6, mats = random_psd(rng, 1000)
        lam, vecs = decompose_batch(t6)
        err = np.sqrt(((reconstruct(lam, vecs) - mats) ** 2).sum(axis=(1, 2)))
        assert err.max() < 1e-9
        for k in rng.choice(1000, size=120, replace=False):
            oracle = jacobi_eigenvalues(mats[k])
            assert np.abs(lam[k] - oracle).max() < 1e-9

    def test_ordering_and_orthonormality(self, rng):
        t6, _ = random_psd(rng, 1000)
        lam, vecs = decompose_batch(t6)
        assert (lam[:, 0] >= lam[:, 1]).all() and (lam[:, 1] >= lam[:, 2]).all()
        gram = np.einsum("nij,nkj->nik", vecs, vecs)
        assert np.abs(gram - np.eye(3)).max() < 1e-9

    def test_trace_identity(self, rng):
        t6, mats = random_psd(rng, 500)
        lam, _ = decompose_batch(t6)
        assert np.abs(lam.sum(axis=1) - np.trace(mats, axis1=1, axis2=2)).max() < 1e-9

    def test_saliency_identity_exact(self, rng):
        # the saliencies are the spectral gaps themselves, bit for bit
        t6, _ = random_psd(rng, 200)
        lam, _ = decompose_batch(t6)
        stick, plate, ball = saliencies(lam)
        assert np.array_equal(stick, lam[:, 0] - lam[:, 1])
        assert np.array_equal(plate, lam[:, 1] - lam[:, 2])
        assert np.array_equal(ball, lam[:, 2])
        assert (stick >= 0).all() and (plate >= 0).all() and (ball >= -1e-9).all()

    def test_sign_convention(self, rng):
        t6, _ = random_psd(rng, 500)
        _, vecs = decompose_batch(t6)
        flat = vecs.reshape(-1, 3)
        lead = np.take_along_axis(flat, np.argmax(np.abs(flat), axis=1)[:, None], axis=1)
        assert (lead >= 0).all()


class TestDegenerate:
    def test_repeated_pair_eigenvalues_only(self, rng):
        # vectors of a repeated eigenvalue are any orthonormal completion:
        # assert spectrum and reconstruction, never specific directions
        q, _ = np.linalg.qr(rng.normal(size=(40, 3, 3)))
        d = np.stack([np.full(40, 2.0), np.full(40, 2.0), rng.uniform(0, 1, 40)], axis=1)
        mats = np.einsum("nij,nj,nkj->nik", q, d, q)
        lam, vecs = decompose_batch(matrices_to_sym(mats))
        assert np.abs(np.sort(lam, axis=1)[:, ::-1] - np.sort(d, axis=1)[:, ::-1]).max() < 1e-9
        err = np.sqrt(((reconstruct(lam, vecs) - mats) ** 2).sum(axis=(1, 2)))
        assert err.max() < 1e-9

    def test_near_degenerate_gaps(self, rng):
        n = 2000
        q, _ = np.linalg.qr(rng.normal(size=(n, 3, 3)))
        gaps = 10.0 ** rng.uniform(-14, -2, n)
        d = np.stack([np.full(n, 2.0), 2.0 - gaps, rng.uniform(0, 1, n)], axis=1)
        mats = np.einsum("nij,nj,nkj->nik", q, d, q)
        lam, vecs = decompose_batch(matrices_to_sym(mats))
        err = np.sqrt(((reconstruct(lam, vecs) - mats) ** 2).sum(axis=(1, 2)))
        assert err.max() < 1e-9
        gram = np.einsum("nij,nkj->nik", vecs, vecs)
        assert np.abs(gram - np.eye(3)).max() < 1e-9


class TestRoundTripHelpers:
    @given(st.tuples(component, component, component, component, component, component))
    @settings(max_examples=100, deadline=None)
    def test_sym_matrix_round_trip(self, parts):
        t6 = np.array(parts)
        assert np.array_equal(matrices_to_sym(sym_to_matrices(t6))[0], t6)

    @given(st.tuples(component, component, component, component, component, component))
    @settings(max_examples=60, deadline=None)
    def test_any_symmetric_reconstructs(self, parts):
        t6 = np.array([parts])
        lam, vecs = decompose_batch(t6)
        mats = sym_to_matrices(t6)
        err = np.sqrt(((reconstruct(lam, vecs) - mats) ** 2).sum())
        assert err < 1e-8 * max(1.0, np.abs(t6).max())
        assert lam[0, 0] >= lam[0, 1] >= lam[0, 2]


class TestBatchDeterminism:
    def test_rows_independent_of_batch(self, rng):
        # tiles and worker processes decompose sub-batches, which must give
        # the bytes of the whole batch
        t6, _ = random_psd(rng, 300)
        t6[:20] = t6[20]                        # repeated rows
        t6[40] = 0.0
        t6[41] = [1.0, 0, 0, 1.0, 0, 1.0]
        lam, vecs = decompose_batch(t6)
        lam_rev, vecs_rev = decompose_batch(t6[::-1])
        assert np.array_equal(lam_rev[::-1], lam) and np.array_equal(vecs_rev[::-1], vecs)
        for k in range(len(t6)):
            lam_k, vecs_k = decompose_batch(t6[k])
            assert np.array_equal(lam_k[0], lam[k]) and np.array_equal(vecs_k[0], vecs[k])

    def test_peak_memory_bounded_by_output(self, rng):
        n = 100_000
        t6, _ = random_psd(rng, n)
        tracemalloc.start()
        try:
            decompose_batch(t6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * n * 9 * 8           # the (n, 3, 3) float64 eigenvectors
