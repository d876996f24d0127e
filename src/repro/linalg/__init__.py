"""Sparse linear-algebra substrate.

Small, self-contained kernels that the rest of the library is built on:

- :mod:`repro.linalg.csr` — CSR helpers (validation, diagonals, l1 row
  norms, lower triangles, nnz-balanced row partitioning).
- :mod:`repro.linalg.norms` — norms used throughout (2-norm, A-norm,
  relative residual norm).
- :mod:`repro.linalg.spectral` — power-method spectral-radius estimation
  and the asynchronous convergence test ``rho(|G|) < 1`` from the
  Chazan-Miranker theory referenced in the paper (Section II.C).

The row-range SpMV and residual kernels live in :mod:`repro.kernels`.
"""

from .csr import (
    as_csr,
    csr_diagonal,
    l1_row_norms,
    lower_triangle,
    partition_rows_by_nnz,
)
from .norms import a_norm, rel_residual_norm, two_norm
from .spectral import (
    abs_iteration_matrix_rho,
    estimate_rho,
    jacobi_iteration_matrix,
    is_async_convergent,
)

__all__ = [
    "as_csr",
    "csr_diagonal",
    "l1_row_norms",
    "lower_triangle",
    "partition_rows_by_nnz",
    "a_norm",
    "rel_residual_norm",
    "two_norm",
    "abs_iteration_matrix_rho",
    "estimate_rho",
    "jacobi_iteration_matrix",
    "is_async_convergent",
]
