"""CSR matrix helpers.

Everything in this module operates on :class:`scipy.sparse.csr_matrix`
(storage) but implements the *algorithmic* helpers the paper's solvers
need ourselves: l1 row norms (for the l1-Jacobi smoother), lower
triangles (for the Gauss-Seidel smoothers), and nnz-proportional row
partitioning (the "work"-balanced assignment of threads to grids).
The row-range SpMV a thread group performs in the shared-memory
algorithms of Section IV is :func:`repro.kernels.range_matvec`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "as_csr",
    "csr_diagonal",
    "l1_row_norms",
    "lower_triangle",
    "partition_rows_by_nnz",
]


def as_csr(A: sp.spmatrix, copy: bool = False) -> sp.csr_matrix:
    """Return ``A`` as a canonical CSR matrix.

    Ensures sorted indices and no duplicate / explicit-zero entries so
    that downstream index arithmetic (strength graphs, interpolation
    stencils) is well defined.

    Parameters
    ----------
    A:
        Any scipy sparse matrix (or dense ndarray).
    copy:
        Force a copy even when ``A`` is already canonical CSR.
    """
    if not sp.issparse(A):
        A = sp.csr_matrix(np.asarray(A, dtype=np.float64))
    A = A.tocsr(copy=copy)
    if A.dtype != np.float64:
        A = A.astype(np.float64)
    A.sum_duplicates()
    A.eliminate_zeros()
    A.sort_indices()
    return A


def csr_diagonal(A: sp.csr_matrix) -> np.ndarray:
    """Diagonal of a square CSR matrix as a dense vector.

    Raises
    ------
    ValueError
        If any diagonal entry is exactly zero — every smoother in the
        paper divides by the diagonal, so a zero diagonal is a setup
        bug we want to surface immediately rather than propagate NaNs.
    """
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"expected square matrix, got shape {A.shape}")
    d = A.diagonal()
    if np.any(d == 0.0):
        bad = int(np.flatnonzero(d == 0.0)[0])
        raise ValueError(f"zero diagonal entry at row {bad}")
    return np.asarray(d, dtype=np.float64)


def l1_row_norms(A: sp.csr_matrix) -> np.ndarray:
    """l1 norms of the rows of ``A``: ``M_ii = sum_j |a_ij|``.

    This is the diagonal smoothing matrix of the l1-Jacobi smoother
    (Baker et al., "Multigrid smoothers for ultraparallel computing").
    """
    A = as_csr(A)
    n = A.shape[0]
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    return np.bincount(rows, weights=np.abs(A.data), minlength=n).astype(np.float64)


def lower_triangle(A: sp.csr_matrix, strict: bool = False) -> sp.csr_matrix:
    """Lower-triangular part of ``A`` (including the diagonal by default).

    Used to build the Gauss-Seidel smoothing matrix ``M = L`` and the
    per-block triangular factors of the hybrid JGS smoother.
    """
    A = as_csr(A)
    k = -1 if strict else 0
    return as_csr(sp.tril(A, k=k, format="csr"))


def partition_rows_by_nnz(A: sp.csr_matrix, nparts: int) -> List[Tuple[int, int]]:
    """Partition rows into ``nparts`` contiguous ranges of ~equal nnz.

    This mirrors how an OpenMP static schedule with per-thread row
    blocks balances SpMV work, and is how the threaded executor divides
    a grid's rows among the threads assigned to that grid.

    Returns a list of half-open ``(start, stop)`` row ranges.  Ranges
    may be empty when ``nparts`` exceeds the number of rows.
    """
    if nparts <= 0:
        raise ValueError("nparts must be positive")
    A = as_csr(A)
    n = A.shape[0]
    if nparts >= n:
        ranges = [(i, i + 1) for i in range(n)]
        ranges += [(n, n)] * (nparts - n)
        return ranges
    cum = A.indptr[1:].astype(np.int64)  # cumulative nnz after each row
    total = int(A.nnz)
    targets = (np.arange(1, nparts) * (total / nparts)).astype(np.int64)
    cuts = np.searchsorted(cum, targets, side="left") + 1
    cuts = np.clip(cuts, 1, n)
    bounds = [0] + list(np.maximum.accumulate(cuts)) + [n]
    # Enforce monotone non-overlapping ranges.
    ranges = []
    for i in range(nparts):
        a, b = int(bounds[i]), int(max(bounds[i], bounds[i + 1]))
        ranges.append((a, b))
    ranges[-1] = (ranges[-1][0], n)
    return ranges
