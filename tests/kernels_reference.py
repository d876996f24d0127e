"""The seed kernels, kept as the tests' bit-exact reference.

These are the pre-kernel-layer code paths, preserved verbatim (modulo
routing) behind the backend interface of :mod:`repro.kernels.backends`,
so that the backend-parity tests can assert that the optimized
``numpy`` backend is *bit-identical* to what the repo shipped before
the kernel layer existed (same products, same left-to-right
accumulation per row).  The tests install this module as the active
backend by swapping ``repro.kernels._backend``; a run under it reports
``kernel_backend == "naive"``.  Nothing in ``src/`` imports it.

Nothing here consults the plan's precomputed machinery beyond the raw
CSR arrays — the ``np.repeat``/``np.zeros`` per call is the point.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.plans import RowRangePlan

__all__ = [
    "range_matvec",
    "range_residual",
    "range_matvec_block",
    "range_residual_block",
    "jacobi_sweep",
    "prolong_add",
    "residual_norm",
]

name = "naive"


def _range_product(plan: RowRangePlan, x: np.ndarray) -> np.ndarray:
    """``(A @ x)[start:stop]`` the seed way: repeat + bincount."""
    lo = int(plan.indptr_window[0])
    hi = int(plan.indptr_window[-1])
    seg = plan.data[lo:hi] * x[plan.indices[lo:hi]]
    local_rows = np.repeat(np.arange(plan.nrows), np.diff(plan.indptr_window))
    return np.bincount(local_rows, weights=seg, minlength=plan.nrows)


def range_matvec(plan: RowRangePlan, x: np.ndarray, out: np.ndarray) -> None:
    if plan.nrows == 0:
        return
    out[:] = _range_product(plan, x)


def range_residual(
    plan: RowRangePlan, x: np.ndarray, b: np.ndarray, out: np.ndarray
) -> None:
    if plan.nrows == 0:
        return
    range_matvec(plan, x, out)
    np.subtract(b[plan.start : plan.stop], out, out=out)


def range_matvec_block(plan: RowRangePlan, X: np.ndarray, out: np.ndarray) -> None:
    """Reference blocked product: one seed-style column at a time."""
    if plan.nrows == 0:
        return
    for j in range(X.shape[1]):
        out[:, j] = _range_product(plan, np.ascontiguousarray(X[:, j]))


def range_residual_block(
    plan: RowRangePlan, X: np.ndarray, B: np.ndarray, out: np.ndarray
) -> None:
    if plan.nrows == 0:
        return
    range_matvec_block(plan, X, out)
    np.subtract(B[plan.start : plan.stop], out, out=out)


def jacobi_sweep(
    plan: RowRangePlan,
    dinv: np.ndarray,
    rhs: np.ndarray,
    y: np.ndarray,
    tmp: np.ndarray,
) -> None:
    """One sweep ``y += dinv * (rhs - A y)`` via fresh temporaries."""
    A = _matrix_view(plan)
    y += dinv * (rhs - A @ y)


def prolong_add(
    plan: RowRangePlan,
    e: np.ndarray,
    y: np.ndarray,
    omega: float,
    tmp: np.ndarray,
) -> None:
    """``y += omega * (P @ e)`` via a fresh fine-grid temporary."""
    P = _matrix_view(plan)
    if omega == 1.0:
        y += P @ e
    else:
        y += omega * (P @ e)


def residual_norm(
    plan: RowRangePlan, x: np.ndarray, b: np.ndarray, tmp: np.ndarray
) -> float:
    A = _matrix_view(plan)
    return float(np.linalg.norm(b - A @ x))


def _matrix_view(plan: RowRangePlan):
    """Rebuild a csr_matrix over the plan's (shared) arrays.

    Cheap — no copies — and lets the reference backend keep using
    scipy's operator products exactly as the seed code did.
    """
    import scipy.sparse as sp

    return sp.csr_matrix(
        (plan.data, plan.indices, plan.indptr),
        shape=(plan.n, plan.ncols),
        copy=False,
    )
