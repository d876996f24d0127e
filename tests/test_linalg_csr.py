"""Unit tests for repro.linalg.csr, and for the row-range kernels of
repro.kernels on the same CSR matrices."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import kernels
from repro.linalg import (
    as_csr,
    csr_diagonal,
    l1_row_norms,
    lower_triangle,
    partition_rows_by_nnz,
)


class TestAsCsr:
    def test_dense_input(self):
        A = as_csr(np.array([[1.0, 0.0], [2.0, 3.0]]))
        assert sp.issparse(A)
        assert A.nnz == 3

    def test_removes_explicit_zeros(self):
        M = sp.csr_matrix((np.array([0.0, 1.0]), (np.array([0, 1]), np.array([0, 1]))), shape=(2, 2))
        A = as_csr(M)
        assert A.nnz == 1

    def test_sums_duplicates(self):
        M = sp.coo_matrix((np.array([1.0, 2.0]), (np.array([0, 0]), np.array([0, 0]))), shape=(1, 1))
        A = as_csr(M)
        assert A[0, 0] == 3.0

    def test_dtype_promoted(self):
        A = as_csr(sp.identity(3, dtype=np.float32, format="csr"))
        assert A.dtype == np.float64

    def test_copy_flag(self):
        M = sp.identity(3, format="csr")
        A = as_csr(M, copy=True)
        A.data[0] = 5.0
        assert M[0, 0] == 1.0


class TestDiagonal:
    def test_values(self, A_7pt):
        d = csr_diagonal(A_7pt)
        assert np.allclose(d, 6.0)

    def test_zero_diagonal_raises(self):
        M = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="zero diagonal"):
            csr_diagonal(M)

    def test_nonsquare_raises(self):
        M = sp.csr_matrix(np.ones((2, 3)))
        with pytest.raises(ValueError, match="square"):
            csr_diagonal(M)


class TestL1RowNorms:
    def test_matches_dense(self, A_7pt):
        expected = np.abs(A_7pt.toarray()).sum(axis=1)
        assert np.allclose(l1_row_norms(A_7pt), expected)

    def test_empty_rows(self):
        M = sp.csr_matrix((3, 3))
        M[0, 0] = 2.0
        assert np.allclose(l1_row_norms(M.tocsr()), [2.0, 0.0, 0.0])

    def test_signs_ignored(self):
        M = sp.csr_matrix(np.array([[1.0, -2.0], [0.0, 3.0]]))
        assert np.allclose(l1_row_norms(M), [3.0, 3.0])


class TestLowerTriangle:
    def test_inclusive(self, A_7pt):
        L = lower_triangle(A_7pt)
        dense = np.tril(A_7pt.toarray())
        assert np.allclose(L.toarray(), dense)

    def test_strict(self, A_7pt):
        L = lower_triangle(A_7pt, strict=True)
        dense = np.tril(A_7pt.toarray(), k=-1)
        assert np.allclose(L.toarray(), dense)


class TestPartitionRows:
    def test_covers_all_rows(self, A_7pt):
        ranges = partition_rows_by_nnz(A_7pt, 5)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == A_7pt.shape[0]
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c

    def test_balances_nnz(self, A_27pt):
        ranges = partition_rows_by_nnz(A_27pt, 4)
        loads = [A_27pt.indptr[b] - A_27pt.indptr[a] for a, b in ranges]
        assert max(loads) < 1.5 * A_27pt.nnz / 4

    def test_more_parts_than_rows(self):
        A = sp.identity(3, format="csr")
        ranges = partition_rows_by_nnz(A, 5)
        assert len(ranges) == 5
        assert ranges[3] == (3, 3)  # empty trailing ranges

    def test_single_part(self, A_7pt):
        assert partition_rows_by_nnz(A_7pt, 1) == [(0, A_7pt.shape[0])]

    def test_invalid_nparts(self, A_7pt):
        with pytest.raises(ValueError):
            partition_rows_by_nnz(A_7pt, 0)


class TestRowRangeMatvec:
    def test_matches_full(self, A_7pt):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(A_7pt.shape[0])
        out = kernels.range_matvec(A_7pt, x, 10, 100, out=np.empty(90))
        assert np.allclose(out, (A_7pt @ x)[10:100])

    def test_empty_range(self, A_7pt):
        x = np.ones(A_7pt.shape[0])
        out = kernels.range_matvec(A_7pt, x, 5, 5)
        assert out.shape == (0,)

    def test_bad_range_raises(self, A_7pt):
        with pytest.raises(ValueError, match="bad row range"):
            kernels.range_matvec(A_7pt, np.ones(A_7pt.shape[0]), 10, 5)

    def test_rows_with_empty_row(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        out = kernels.range_matvec(A, np.array([2.0, 3.0]), 0, 2)
        assert np.array_equal(out, [2.0, 0.0])


class TestResidual:
    def test_zero_at_solution(self, A_7pt):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(A_7pt.shape[0])
        b = A_7pt @ x
        n = A_7pt.shape[0]
        assert np.allclose(kernels.range_residual(A_7pt, x, b, 0, n), 0.0)

    def test_residual_rows_slice(self, A_7pt, b_7pt):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(A_7pt.shape[0])
        out = kernels.range_residual(A_7pt, x, b_7pt, 20, 60, out=np.empty(40))
        assert np.allclose(out, (b_7pt - A_7pt @ x)[20:60])
