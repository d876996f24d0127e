"""Shared solver machinery.

:class:`AdditiveMultigrid` is the common base of BPX, Multadd and
AFACx.  Its central abstraction is ``correction(k, r)``: the fine-grid
correction contributed by grid ``k`` given a fine-grid residual ``r``.
One synchronous "V-cycle" (the paper's loose usage for additive
methods) is::

    r = b - A x
    x = x + sum_k correction(k, r)

and the asynchronous engines call ``correction`` with *stale* residuals
or residuals recomputed from *stale* iterates — that is the only
difference between the synchronous and asynchronous methods, exactly as
in the paper's models.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

import numpy as np
import scipy.sparse as sp

from ..amg import Hierarchy
from ..linalg import rel_residual_norm
from ..resilience import FaultTelemetry
from ..smoothers import Smoother, make_smoother
from .coarse import CoarseSolver

__all__ = ["SolveResult", "AdditiveMultigrid", "build_level_smoothers", "run_cycles"]


@dataclass
class SolveResult:
    """Outcome of a fixed-cycle solve.

    Attributes
    ----------
    x:
        Final iterate.
    residual_history:
        ``||r||/||b||`` after each cycle (index 0 = after 1 cycle).
    cycles:
        Number of cycles performed.
    corrections:
        Total grid corrections performed (== ``cycles * ngrids`` for
        synchronous additive methods; asynchronous engines report their
        own counts).
    diverged:
        True when the final relative residual exceeds the divergence
        threshold (the paper's dagger entries).
    stalled / telemetry:
        The uniform result contract (RPR005): a synchronous fixed-cycle
        solve cannot stall and injects no faults, so these stay at
        their defaults — but consumers that mix sync and async results
        never need ``hasattr`` probes.
    """

    x: np.ndarray
    residual_history: List[float] = field(default_factory=list)
    cycles: int = 0
    corrections: int = 0
    diverged: bool = False
    stalled: bool = False
    telemetry: FaultTelemetry = field(default_factory=FaultTelemetry)

    @property
    def final_relres(self) -> float:
        return self.residual_history[-1] if self.residual_history else np.inf


def run_cycles(
    method: Any,
    b: np.ndarray,
    tmax: int,
    x0: Optional[np.ndarray],
    divergence_threshold: float,
    callback: Optional[Callable[[int, float], None]] = None,
) -> SolveResult:
    """Run ``tmax`` (at least 1) synchronous ``method.cycle`` calls,
    recording relative residuals; a non-finite residual or one past
    ``divergence_threshold`` ends the loop as diverged.

    The residual-norm recording happens *outside* the method (as in
    the paper, which never evaluates norms inside the solve loop).
    """
    if tmax < 1:
        raise ValueError("tmax must be >= 1")
    x = np.zeros(method.n) if x0 is None else np.array(x0, dtype=np.float64)
    res = SolveResult(x=x)
    for t in range(1, tmax + 1):
        x = method.cycle(x, b)
        rel = rel_residual_norm(method.A, x, b)
        res.residual_history.append(rel)
        res.cycles = t
        res.corrections += method.ngrids
        if callback is not None:
            callback(t, rel)
        if not np.isfinite(rel) or rel > divergence_threshold:
            res.diverged = True
            break
    res.x = x
    return res


def build_level_smoothers(
    hierarchy: Hierarchy, smoother: str, **kwargs
) -> List[Smoother]:
    """One smoother per non-coarsest level (the paper smooths k < l)."""
    return [
        make_smoother(smoother, lv.A, **kwargs) for lv in hierarchy.levels[:-1]
    ]


class AdditiveMultigrid(ABC):
    """Base class for additive multigrid solvers.

    Parameters
    ----------
    hierarchy:
        AMG hierarchy from :func:`repro.amg.setup_hierarchy`.
    smoother:
        Registry name (``"jacobi"``, ``"l1_jacobi"``, ``"hybrid_jgs"``,
        ``"async_gs"``, ...).
    smoother_kwargs:
        Forwarded to the smoother constructor on every level.
    """

    #: display name used by benchmark tables
    method_name: str = "additive"

    def __init__(
        self,
        hierarchy: Hierarchy,
        smoother: str = "jacobi",
        **smoother_kwargs,
    ):
        self.hierarchy = hierarchy
        self.smoother_name = smoother
        self.smoother_kwargs = dict(smoother_kwargs)
        self.smoothers = build_level_smoothers(hierarchy, smoother, **smoother_kwargs)
        self.coarse = CoarseSolver(hierarchy.levels[-1].A)

    # ------------------------------------------------------------------
    @property
    def A(self) -> sp.csr_matrix:
        return self.hierarchy.levels[0].A

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def ngrids(self) -> int:
        """Number of grids contributing corrections (the paper's l+1)."""
        return self.hierarchy.nlevels

    # ------------------------------------------------------------------
    @abstractmethod
    def correction(self, k: int, r: np.ndarray) -> np.ndarray:
        """Grid ``k``'s fine-grid correction from fine-grid residual ``r``.

        This is ``B_k`` evaluated at the point where ``b - A x = r``
        (solution-based models) and ``C_k(r)`` (residual-based models).
        """

    def correction_into(
        self, k: int, r: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Accumulate grid ``k``'s correction: ``out += correction(k, r)``.

        Subclasses fuse the final fine-grid prolongation through
        :func:`repro.kernels.prolong_add`, so accumulating a correction
        skips the full-length temporary the generic form allocates.
        Bit-identical to ``out += self.correction(k, r)`` under the
        numpy kernel backend.
        """
        out += self.correction(k, r)
        return out

    # ------------------------------------------------------------------
    def cycle(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """One synchronous additive cycle (all grids, one fresh residual)."""
        r = b - self.A @ x
        out = np.array(x, copy=True)
        for k in range(self.ngrids):
            self.correction_into(k, r, out)
        return out

    def solve(
        self,
        b: np.ndarray,
        tmax: int = 20,
        x0: Optional[np.ndarray] = None,
        divergence_threshold: float = 1e6,
        callback: Optional[Callable[[int, float], None]] = None,
    ) -> SolveResult:
        """Run ``tmax`` synchronous cycles (:func:`run_cycles`)."""
        return run_cycles(self, b, tmax, x0, divergence_threshold, callback)

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    @abstractmethod
    def correction_flops(self, k: int) -> float:
        """Approximate flops of one ``correction(k, .)`` call."""

    def residual_flops(self) -> float:
        """Cost of one fine-grid residual (SpMV + axpy)."""
        return 2.0 * self.A.nnz + self.n

    def work_per_grid(self) -> np.ndarray:
        """Per-grid work vector used for thread partitioning (Section IV)."""
        return np.array(
            [self.correction_flops(k) for k in range(self.ngrids)], dtype=np.float64
        )
