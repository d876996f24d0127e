"""Multadd — additive variants of multiplicative multigrid (Eq. 2).

One cycle is ``x += sum_k Pbar_k^0 Lambda_k (Pbar_k^0)^T r`` with

- smoothed interpolants ``Pbar^k_{k+1} = G_k P^k_{k+1}`` built from a
  *diagonal* iteration matrix (omega-Jacobi, or l1-Jacobi when the
  cycle smoother is l1-Jacobi — the paper's performance compromise),
- ``Lambda_k`` the symmetrized smoother
  ``M^{-T}(M + M^T - A)M^{-1}`` (making Multadd mathematically
  equivalent to a symmetric multiplicative V(1,1)-cycle) or an
  approximation of it (``lambda_mode="minv"`` — one plain sweep, used
  for the hybrid/asynchronous smoothers exactly as in the paper),
- ``Lambda_l = A_l^{-1}`` (exact coarsest solve).

``correction(k, r)`` restricts ``r`` through the *smoothed* transposes,
applies ``Lambda_k``, and prolongs back through the smoothed
interpolants — grid ``k``'s ``B_k``/``C_k`` in the asynchronous models.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .. import kernels
from ..amg import Hierarchy
from ..kernels.setupcache import cached_smoothed_interpolants
from .base import AdditiveMultigrid

__all__ = ["Multadd"]

_LAMBDA_MODES = ("symmetrized", "minv", "sweep")


def _restrict(P: sp.csr_matrix, c: np.ndarray) -> np.ndarray:
    """``P.T @ c`` without building the transposed matrix.

    scipy evaluates ``P.T @ c`` as ``csc_matvec`` over ``P``'s own CSR
    arrays (the transpose is a CSC view of them).  Calling that routine
    directly gives the same bits without building and checking the
    view on every call, which took longer than the product itself.
    """
    out = np.zeros(P.shape[1])
    _sparsetools.csc_matvec(P.shape[1], P.shape[0], P.indptr, P.indices, P.data, c, out)
    return out


def _prolong(P: sp.csr_matrix, d: np.ndarray) -> np.ndarray:
    """``P @ d`` into a fresh array, through the selected kernel backend."""
    return kernels.range_matvec(P, d, 0, P.shape[0], out=np.empty(P.shape[0]))


class Multadd(AdditiveMultigrid):
    """Additive variant of the multiplicative method (Multadd)."""

    method_name = "multadd"

    def __init__(
        self,
        hierarchy: Hierarchy,
        smoother: str = "jacobi",
        lambda_mode: str | None = None,
        interp_smoother_kind: str | None = None,
        interp_weight: float | None = None,
        **smoother_kwargs,
    ):
        """
        Parameters
        ----------
        lambda_mode:
            ``"symmetrized"`` (default for the Jacobi smoothers),
            ``"minv"`` (default for hybrid/async GS: Lambda is the
            block forward solve, the paper's choice), or ``"sweep"``
            (one full smoothing sweep, for the asynchronous smoother's
            nondeterministic application).
        interp_smoother_kind / interp_weight:
            Diagonal iteration matrix used for the smoothed
            interpolants.  Defaults follow the paper: l1-Jacobi when
            the smoother is l1-Jacobi, else omega-Jacobi with the
            smoother's weight (or 0.9).
        """
        super().__init__(hierarchy, smoother, **smoother_kwargs)
        if lambda_mode is None:
            lambda_mode = (
                "symmetrized" if smoother in ("jacobi", "l1_jacobi") else "minv"
            )
        if lambda_mode not in _LAMBDA_MODES:
            raise ValueError(f"lambda_mode must be one of {_LAMBDA_MODES}")
        self.lambda_mode = lambda_mode

        if interp_smoother_kind is None:
            interp_smoother_kind = "l1_jacobi" if smoother == "l1_jacobi" else "jacobi"
        if interp_weight is None:
            interp_weight = float(smoother_kwargs.get("weight", 0.9))
        self.interp_smoother_kind = interp_smoother_kind
        self.interp_weight = interp_weight
        # Memoized on the hierarchy: building several Multadd variants
        # over one hierarchy (benchmark harnesses do) pays for the
        # interpolant triple products once.
        self.P_bar = cached_smoothed_interpolants(
            hierarchy, kind=interp_smoother_kind, weight=interp_weight
        )

    # ------------------------------------------------------------------
    def _apply_lambda(self, k: int, c: np.ndarray) -> np.ndarray:
        sm = self.smoothers[k]
        if self.lambda_mode == "symmetrized":
            return sm.symmetrized_apply(c)
        if self.lambda_mode == "minv":
            return sm.minv(c)
        return sm.sweep(np.zeros_like(c), c, nsweeps=1)

    def _level_correction(self, k: int, r: np.ndarray) -> np.ndarray:
        """``Lambda_k (Pbar_k^0)^T r`` — the grid-``k`` part before
        prolongation back to the fine grid."""
        c = r
        for j in range(k):
            c = _restrict(self.P_bar[j], c)
        return self.coarse(c) if k == self.hierarchy.coarsest else self._apply_lambda(k, c)

    def correction(self, k: int, r: np.ndarray) -> np.ndarray:
        """``Pbar_k^0 Lambda_k (Pbar_k^0)^T r`` applied factor by factor.

        Returns a fresh array: the engine commits it in chunks while
        other grids correct.
        """
        d = self._level_correction(k, r)
        for j in range(k - 1, -1, -1):
            d = _prolong(self.P_bar[j], d)
        return d

    def correction_into(
        self, k: int, r: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Accumulating form with the final prolongation factor fused."""
        d = self._level_correction(k, r)
        if k == 0:
            out += d
            return out
        for j in range(k - 1, 0, -1):
            d = _prolong(self.P_bar[j], d)
        return kernels.prolong_add(out, self.P_bar[0], d)

    # ------------------------------------------------------------------
    def correction_flops(self, k: int) -> float:
        total = 0.0
        for j in range(k):
            total += 4.0 * self.P_bar[j].nnz  # restrict + prolong
        if k == self.hierarchy.coarsest:
            total += self.coarse.flops()
        else:
            sm = self.smoothers[k]
            if self.lambda_mode == "symmetrized":
                # minv + (M, M^T, A) applies + minv_t
                total += 2.0 * sm.minv_flops() + 2.0 * self.hierarchy.levels[k].nnz * 2.0
            else:
                total += sm.minv_flops()
        return total
