"""Property-based tests (hypothesis) for the linalg substrate."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro import kernels
from repro.linalg import (
    as_csr,
    l1_row_norms,
    partition_rows_by_nnz,
    two_norm,
)
from repro.partition import largest_remainder, partition_threads


def sparse_matrices(max_n=24, density=0.3):
    """Strategy: random square sparse matrices with nonzero diagonals."""

    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_n))
        rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
        dense = rng.standard_normal((n, n))
        mask = rng.uniform(size=(n, n)) < density
        dense = dense * mask
        np.fill_diagonal(dense, rng.uniform(1.0, 3.0, n))
        return sp.csr_matrix(dense)

    return build()


class TestCsrProperties:
    @given(sparse_matrices())
    @settings(max_examples=30, deadline=None)
    def test_as_csr_idempotent(self, A):
        B = as_csr(A)
        C = as_csr(B)
        assert (B != C).nnz == 0

    @given(sparse_matrices())
    @settings(max_examples=30, deadline=None)
    def test_l1_norms_match_dense(self, A):
        assert np.allclose(l1_row_norms(A), np.abs(A.toarray()).sum(axis=1))

    @given(sparse_matrices(), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_partition_covers(self, A, nparts):
        ranges = partition_rows_by_nnz(A, nparts)
        covered = []
        for a, b in ranges:
            covered.extend(range(a, b))
        assert covered == list(range(A.shape[0]))

    @given(sparse_matrices(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_range_kernels_consistent(self, A, data):
        n = A.shape[0]
        lo = data.draw(st.integers(0, n))
        hi = data.draw(st.integers(lo, n))
        rng = np.random.default_rng(0)
        x = rng.standard_normal(n)
        b = rng.standard_normal(n)
        mv = kernels.range_matvec(A, x, lo, hi, out=np.empty(hi - lo))
        assert np.allclose(mv, (A @ x)[lo:hi])
        rs = kernels.range_residual(A, x, b, lo, hi, out=np.empty(hi - lo))
        assert np.allclose(rs, (b - A @ x)[lo:hi])

    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 50),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_two_norm_nonnegative_and_homogeneous(self, v):
        assert two_norm(v) >= 0
        assert two_norm(2.0 * v) == np.float64(2.0) * np.float64(two_norm(v)) or np.isclose(
            two_norm(2.0 * v), 2.0 * two_norm(v), rtol=1e-12
        )


class TestPartitionProperties:
    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 12),
            elements=st.floats(0.01, 100.0, allow_nan=False),
        ),
        st.integers(0, 300),
    )
    @settings(max_examples=80, deadline=None)
    def test_largest_remainder_exact(self, w, total):
        out = largest_remainder(w, total)
        assert out.sum() == total
        assert np.all(out >= 0)

    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 12),
            elements=st.floats(0.01, 100.0, allow_nan=False),
        ),
        st.integers(1, 300),
    )
    @settings(max_examples=80, deadline=None)
    def test_partition_threads_invariants(self, w, nthreads):
        out = partition_threads(w, nthreads)
        assert np.all(out >= 1)
        if nthreads >= w.size:
            assert out.sum() == nthreads

    @given(
        hnp.arrays(
            np.float64,
            st.integers(2, 10),
            elements=st.floats(0.5, 50.0, allow_nan=False),
        ),
        st.integers(20, 200),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_monotone_in_work(self, w, nthreads):
        # A grid with more work never gets fewer threads (within the
        # +/-1 slack of integer apportionment).
        out = partition_threads(w, nthreads)
        order = np.argsort(w)
        sorted_alloc = out[order]
        assert np.all(np.diff(sorted_alloc) >= -1)
