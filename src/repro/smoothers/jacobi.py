"""Diagonal smoothers: omega-Jacobi and l1-Jacobi.

omega-Jacobi is the paper's workhorse (weight .9 for the stencil sets,
.5 for the FEM sets); l1-Jacobi replaces the diagonal with l1 row norms
and is provably convergent as a smoother on SPD matrices (error
monotone in the A-norm) but more damped — the paper's Table I shows it
needing the most V-cycles everywhere.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .. import kernels
from ..linalg import csr_diagonal, l1_row_norms
from .base import Smoother, register

__all__ = ["WeightedJacobi", "L1Jacobi"]


class _DiagonalSmoother(Smoother):
    """Common machinery for smoothers with diagonal ``M``."""

    def __init__(self, A: sp.spmatrix, diag: np.ndarray):
        super().__init__(A)
        diag = np.asarray(diag, dtype=np.float64)
        if diag.shape != (self.n,):
            raise ValueError("diagonal has wrong length")
        if np.any(diag == 0.0):
            raise ValueError("smoothing diagonal has zero entries")
        self._d = diag
        self._dinv = 1.0 / diag

    def sweep(
        self, x: np.ndarray, b: np.ndarray, nsweeps: int = 1
    ) -> np.ndarray:
        """Fused diagonal sweeps through :mod:`repro.kernels`.

        One row pass and three elementwise passes per sweep (the
        generic base implementation allocates two temporaries per
        sweep); bit-identical to it under the numpy backend.
        """
        return kernels.jacobi_sweeps(self.A, self._dinv, b, x0=x, nsweeps=nsweeps)

    def minv(self, r: np.ndarray) -> np.ndarray:
        return self._dinv * r

    def minv_t(self, r: np.ndarray) -> np.ndarray:
        return self._dinv * r

    def m_apply(self, v: np.ndarray) -> np.ndarray:
        return self._d * v

    def mt_apply(self, v: np.ndarray) -> np.ndarray:
        return self._d * v

    def symmetrized_apply(self, r: np.ndarray) -> np.ndarray:
        # Specialized: M^{-1}(2M - A)M^{-1} r, one SpMV + two scalings.
        y = self._dinv * r
        Ay = kernels.range_matvec(self.A, y, 0, self.n, out=np.empty(self.n))
        return self._dinv * (2.0 * self._d * y - Ay)

    @property
    def smoothing_diagonal(self) -> np.ndarray:
        """The diagonal of ``M`` (read-only view)."""
        return self._d


@register("jacobi")
class WeightedJacobi(_DiagonalSmoother):
    """omega-Jacobi: ``M = D / omega``.

    ``weight`` is the paper's omega (.9 or .5 depending on the test
    set).  ``weight = 1`` is plain Jacobi, which is *not* a convergent
    smoother for the 7pt operator's high frequencies in 3-D — the
    under-relaxation matters.
    """

    def __init__(self, A: sp.spmatrix, weight: float = 0.9):
        if not 0.0 < weight <= 2.0:
            raise ValueError(f"weight must be in (0, 2], got {weight}")
        d = csr_diagonal(sp.csr_matrix(A) if not sp.issparse(A) else A.tocsr())
        super().__init__(A, d / weight)
        self.weight = float(weight)


@register("l1_jacobi")
class L1Jacobi(_DiagonalSmoother):
    """l1-Jacobi: ``M_ii = sum_j |a_ij|``.

    For SPD ``A`` we have ``M >= D >= A``'s diagonal dominance pattern,
    which gives ``2M - A`` SPD and hence monotone A-norm error decay;
    :meth:`is_provably_convergent` checks the operative inequality on
    request.
    """

    def __init__(self, A: sp.spmatrix):
        A = sp.csr_matrix(A)
        super().__init__(A, l1_row_norms(A))

    def is_provably_convergent(self) -> bool:
        """Check ``v^T (2M - A) v > 0`` on a few random vectors.

        A cheap necessary-condition probe of the SPD-ness of ``2M - A``
        (sufficient for smoother convergence); exact verification would
        need an eigendecomposition.
        """
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.standard_normal(self.n)
            q = 2.0 * float(v @ (self._d * v)) - float(v @ (self.A @ v))
            if q <= 0.0:
                return False
        return True
