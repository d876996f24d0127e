"""The ``numpy`` backend — allocation-free plan-driven CSR kernels.

Always available, and the default.  The row-wise products go through
scipy's compiled ``csr_matvec`` routine (the same C code behind
``A @ x``) driven directly with the plan's absolute ``indptr`` window,
so a row-range product touches only the owned rows and writes into a
caller/plan buffer — no full-length zero vector, no per-call
``np.repeat``, no Python-level reduction.

Bit-identity with the seed kernels, which the tests keep as their
reference, is by construction: both paths form the per-entry products
with the same operands and accumulate each row strictly left to right
from zero, and the fused epilogues (`rhs - Ax`, `dinv *`, `+=`)
perform the same elementwise operations in the same order the seed
expressions did.

``csr_matvec`` *accumulates* (``y += A x``), so every product below
zero-fills its target first.  ``csr_matvec`` and ``csr_matvecs`` are in
every scipy the package supports (``>= 1.8``); ``repro.solvers.multadd``
calls the same private module.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

from ..plans import RowRangePlan

__all__ = [
    "range_matvec",
    "range_residual",
    "range_matvec_block",
    "range_residual_block",
    "jacobi_sweep",
    "prolong_add",
    "residual_norm",
]

name = "numpy"


def _product_into(plan: RowRangePlan, x: np.ndarray, out: np.ndarray) -> None:
    """``out[:] = (A @ x)[start:stop]`` (local length) via compiled CSR."""
    out[:] = 0.0
    csr_matvec(
        plan.nrows, plan.ncols, plan.indptr_window, plan.indices, plan.data, x, out
    )


def range_matvec(plan: RowRangePlan, x: np.ndarray, out: np.ndarray) -> None:
    if plan.nrows == 0:
        return
    _product_into(plan, x, out)


def range_residual(
    plan: RowRangePlan, x: np.ndarray, b: np.ndarray, out: np.ndarray
) -> None:
    if plan.nrows == 0:
        return
    _product_into(plan, x, out)
    np.subtract(b[plan.start : plan.stop], out, out=out)


def range_matvec_block(plan: RowRangePlan, X: np.ndarray, out: np.ndarray) -> None:
    """``out[:, :] = (A @ X)[start:stop, :]`` via compiled blocked CSR.

    ``csr_matvecs`` accumulates each output row over the row's
    nonzeros strictly left to right, exactly like ``csr_matvec`` does
    per column — so every column is bit-identical to the scalar
    kernel's result.
    """
    if plan.nrows == 0:
        return
    out[...] = 0.0
    csr_matvecs(
        plan.nrows,
        plan.ncols,
        X.shape[1],
        plan.indptr_window,
        plan.indices,
        plan.data,
        X.reshape(-1),
        out.reshape(-1),
    )


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
    """Fused ``y += dinv * (rhs - A y)`` with one scratch vector."""
    _product_into(plan, y, tmp)
    np.subtract(rhs, tmp, out=tmp)
    tmp *= dinv
    y += tmp


def prolong_add(
    plan: RowRangePlan,
    e: np.ndarray,
    y: np.ndarray,
    omega: float,
    tmp: np.ndarray,
) -> None:
    """Fused ``y += omega * (P @ e)`` with one scratch vector."""
    _product_into(plan, e, tmp)
    if omega != 1.0:
        tmp *= omega
    y += tmp


def residual_norm(
    plan: RowRangePlan, x: np.ndarray, b: np.ndarray, tmp: np.ndarray
) -> float:
    range_residual(plan, x, b, tmp)
    return float(np.linalg.norm(tmp))
