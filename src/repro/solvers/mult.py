"""Classical multiplicative multigrid (Algorithm 1) — the Mult baseline.

A V(s1, s2)-cycle: pre-smooth and restrict down the hierarchy, solve
the coarsest grid exactly, prolong and post-smooth back up.  The
``symmetric`` flag makes post-smoothing use ``M^T`` (the transposed
sweep), which is the variant Multadd with the symmetrized smoother is
mathematically equivalent to (Section II.B.1) — that identity is unit
tested.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..amg import Hierarchy
from .base import SolveResult, build_level_smoothers, run_cycles
from .coarse import CoarseSolver

__all__ = ["MultiplicativeMultigrid"]


class MultiplicativeMultigrid:
    """V-cycle multiplicative multigrid solver."""

    method_name = "mult"

    def __init__(
        self,
        hierarchy: Hierarchy,
        smoother: str = "jacobi",
        pre_sweeps: int = 1,
        post_sweeps: int = 1,
        symmetric: bool = False,
        gamma: int = 1,
        f_cycle: bool = False,
        **smoother_kwargs,
    ):
        """``gamma`` is the cycle index: 1 = V-cycle (Algorithm 1),
        2 = W-cycle (each coarse problem visited twice).  ``f_cycle``
        runs an F-cycle: the first coarse visit recurses like a
        W-cycle, later ones like a V-cycle — the classical compromise.
        """
        if pre_sweeps < 0 or post_sweeps < 0:
            raise ValueError("sweep counts must be non-negative")
        if gamma < 1:
            raise ValueError("gamma must be >= 1")
        self.hierarchy = hierarchy
        self.pre_sweeps = int(pre_sweeps)
        self.post_sweeps = int(post_sweeps)
        self.symmetric = bool(symmetric)
        self.gamma = int(gamma)
        self.f_cycle = bool(f_cycle)
        self.smoothers = build_level_smoothers(hierarchy, smoother, **smoother_kwargs)
        self.coarse = CoarseSolver(hierarchy.levels[-1].A)

    @property
    def A(self):
        return self.hierarchy.levels[0].A

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def ngrids(self) -> int:
        return self.hierarchy.nlevels

    # ------------------------------------------------------------------
    def _solve_level(self, k: int, rhs: np.ndarray, gamma: int) -> np.ndarray:
        """Recursive cycle on level ``k``'s error equation ``A_k e = rhs``.

        ``gamma`` coarse visits per level (V: 1, W: 2); an F-cycle's
        first visit passes its own gamma down, subsequent visits use 1.
        """
        levels = self.hierarchy.levels
        ell = self.hierarchy.coarsest
        if k == ell:
            return self.coarse(rhs)
        sm = self.smoothers[k]
        lv = levels[k]
        ek = np.zeros(lv.n)
        for _ in range(self.pre_sweeps):
            ek = ek + sm.minv(rhs - lv.A @ ek)
        for visit in range(gamma):
            r_coarse = lv.R @ (rhs - lv.A @ ek)
            sub_gamma = gamma if not self.f_cycle else (gamma if visit == 0 else 1)
            ek = ek + lv.P @ self._solve_level(k + 1, r_coarse, sub_gamma)
        for _ in range(self.post_sweeps):
            defect = rhs - lv.A @ ek
            ek = ek + (sm.minv_t(defect) if self.symmetric else sm.minv(defect))
        return ek

    def cycle(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """One multigrid cycle applied to ``x`` (returns the new iterate).

        V-cycle for ``gamma = 1`` (Algorithm 1 of the paper), W-cycle
        for ``gamma = 2``, F-cycle with ``f_cycle=True``.
        """
        r0 = b - self.A @ x
        return x + self._solve_level(0, r0, self.gamma)

    # ------------------------------------------------------------------
    def solve(
        self,
        b: np.ndarray,
        tmax: int = 20,
        x0: Optional[np.ndarray] = None,
        divergence_threshold: float = 1e6,
    ) -> SolveResult:
        """Run ``tmax`` cycles (:func:`~repro.solvers.base.run_cycles`)."""
        return run_cycles(self, b, tmax, x0, divergence_threshold)

    # ------------------------------------------------------------------
    def residual_flops(self) -> float:
        """Cost of one fine-grid residual (SpMV + axpy)."""
        return 2.0 * self.A.nnz + self.n
