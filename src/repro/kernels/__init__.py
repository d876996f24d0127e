"""Backend-selectable compiled/cached kernel layer.

The paper's claim is that asynchronous additive multigrid runs "as
fast as the hardware allows"; the reproduction's hot loops should not
spend their time rebuilding index arrays and allocating temporaries.
This package provides the five hot kernels every executor shares —

- **row-range SpMV** (the per-thread share of the global-res parfor;
  over the full range, Multadd's prolongations and the diagonal
  smoothers' symmetrized Lambda),
- **row-range residual** (``(b - A x)[start:stop]``),
- **fused diagonal (ω-/l1-)Jacobi sweep**,
- **fused correction prolongation** (``y += ω · P @ e``),
- **residual norm** (``||b - A x||_2`` without a persistent temporary)

— behind one dispatch point with three backends:

``numpy``
    Default; allocation-free plan-driven kernels on scipy's compiled
    CSR routines.  Bit-identical to the seed code paths.
``numba``
    JIT loops, auto-detected (import-gated); fastest, agrees with
    ``numpy`` to 1e-14 relative but not bitwise.
``naive`` (alias ``off``)
    The seed implementation kept verbatim as the reference.

Selection: the ``REPRO_KERNELS`` environment variable at import time
(``numpy`` / ``numba`` / ``naive`` / ``off`` / ``auto``), or
:func:`use` at runtime.  ``auto`` picks numba when importable, else
numpy.

Setup-phase artifacts (AMG hierarchies, smoothed interpolants) are
memoized separately in :mod:`repro.kernels.setupcache`; per-``(matrix,
row-range)`` index machinery and buffers live in
:mod:`repro.kernels.plans`.

Per-kernel timing: :func:`enable_stats` turns on lightweight
per-thread timing shards (perf_counter pairs around each kernel);
executors handed a tracer enable it for the run and record one
``kernel`` trace event per kernel with the accumulated seconds and
call count, so observability can attribute speedups kernel by kernel.
"""

from __future__ import annotations

import os
import threading
import time
from types import ModuleType
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .plans import (
    RowRangePlan,
    clear_plans,
    plan_cache_info,
    plan_for,
    scratch,
)

__all__ = [
    "KERNEL_NAMES",
    "BLOCK_KERNEL_NAMES",
    "available_backends",
    "current_backend",
    "use",
    "range_matvec",
    "range_residual",
    "range_matvec_block",
    "range_residual_block",
    "jacobi_sweeps",
    "prolong_add",
    "residual_norm",
    "row_range_matvec",
    "residual_rows",
    "plan_for",
    "clear_plans",
    "plan_cache_info",
    "RowRangePlan",
    "scratch",
    "enable_stats",
    "stats_enabled",
    "stats",
    "stats_delta",
    "reset_stats",
    "register_stats",
]

#: The five scalar hot kernels, in dispatch order (the perf bench
#: sweeps exactly these; the blocked multi-RHS variants below are
#: dispatched and timed under their own names).
KERNEL_NAMES: Tuple[str, ...] = (
    "range_matvec",
    "range_residual",
    "jacobi_sweep",
    "prolong_add",
    "residual_norm",
)

#: The blocked multi-RHS kernels over ``(n, k)`` right-hand-side
#: blocks (the solver-as-a-service prerequisite; the server's batch
#: solves compute their block residuals with them).
BLOCK_KERNEL_NAMES: Tuple[str, ...] = (
    "range_matvec_block",
    "range_residual_block",
)


# ----------------------------------------------------------------------
# Backend registry and selection
# ----------------------------------------------------------------------
def _load_backend(name: str) -> ModuleType:
    if name == "numpy":
        from .backends import numpy_backend

        return numpy_backend
    if name == "naive":
        from .backends import naive

        return naive
    if name == "numba":
        from .backends import numba_backend  # raises ImportError without numba

        return numba_backend
    raise ValueError(f"unknown kernel backend {name!r}; known: {_KNOWN}")


_KNOWN = ("numpy", "numba", "naive")
_ALIASES = {"off": "naive", "auto": "auto"}
_backend: ModuleType


def available_backends() -> Tuple[str, ...]:
    """Backends importable in this environment (numba is optional)."""
    names: List[str] = ["numpy", "naive"]
    try:
        _load_backend("numba")
    except ImportError:
        pass
    else:
        names.insert(1, "numba")
    return tuple(names)


def use(name: str = "auto") -> str:
    """Select the kernel backend; returns the resolved backend name.

    ``"auto"`` resolves to numba when importable, else numpy.
    ``"off"`` is an alias for the ``naive`` reference backend.
    Selection is process-global; switching mid-run is supported (the
    kernels are stateless beyond the shared, backend-agnostic plans).
    """
    global _backend
    name = _ALIASES.get(name, name)
    if name == "auto":
        try:
            _backend = _load_backend("numba")
        except ImportError:
            _backend = _load_backend("numpy")
    else:
        _backend = _load_backend(name)
    return _backend.name


def current_backend() -> str:
    """Name of the active backend (``numpy`` / ``numba`` / ``naive``)."""
    return _backend.name


use(os.environ.get("REPRO_KERNELS", "auto"))


# ----------------------------------------------------------------------
# Per-kernel timing (opt-in; per-thread shards, merged on read)
# ----------------------------------------------------------------------
class _KernelStats:
    """Per-thread (calls, seconds) shards — no locking on the hot path.

    Each thread bumps only its own shard dict (registered once under a
    lock); :meth:`totals` sums shards at read time.  With ``enabled``
    False the kernels skip the perf_counter pair entirely.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._shards: List[Dict[str, Tuple[int, float]]] = []
        self._lock = threading.Lock()

    def shard(self) -> Dict[str, Tuple[int, float]]:
        d = getattr(self._local, "d", None)
        if d is None:
            d = {}
            self._local.d = d
            with self._lock:
                self._shards.append(d)
        return d

    def bump(self, kernel: str, seconds: float) -> None:
        d = self.shard()
        calls, total = d.get(kernel, (0, 0.0))
        d[kernel] = (calls + 1, total + seconds)

    def totals(self) -> Dict[str, Tuple[int, float]]:
        out: Dict[str, Tuple[int, float]] = {}
        with self._lock:
            shards = list(self._shards)
        for d in shards:
            for kernel, (calls, secs) in list(d.items()):
                c0, s0 = out.get(kernel, (0, 0.0))
                out[kernel] = (c0 + calls, s0 + secs)
        return out

    def reset(self) -> None:
        with self._lock:
            for d in self._shards:
                d.clear()


_stats = _KernelStats()


def enable_stats(on: bool = True) -> bool:
    """Toggle per-kernel timing; returns the previous setting."""
    prev = _stats.enabled
    _stats.enabled = bool(on)
    return prev


def stats_enabled() -> bool:
    return _stats.enabled


def stats() -> Dict[str, Tuple[int, float]]:
    """Accumulated ``{kernel: (calls, seconds)}`` across all threads."""
    return _stats.totals()


def stats_delta(
    before: Dict[str, Tuple[int, float]],
) -> Dict[str, Tuple[int, float]]:
    """Per-kernel (calls, seconds) accumulated since ``before``."""
    now = _stats.totals()
    out: Dict[str, Tuple[int, float]] = {}
    for kernel, (calls, secs) in now.items():
        c0, s0 = before.get(kernel, (0, 0.0))
        if calls - c0 > 0:
            out[kernel] = (calls - c0, secs - s0)
    return out


def reset_stats() -> None:
    _stats.reset()


def register_stats(metrics) -> None:
    """Register a kernel-time provider on a :class:`repro.observe.Metrics`.

    Collected lazily at ``metrics.collect()`` time: one
    ``kernels.<name>.calls`` / ``kernels.<name>.seconds`` pair per
    kernel, plus the active backend name.
    """

    def provide() -> Dict[str, object]:
        snap: Dict[str, object] = {"kernels.backend": current_backend()}
        for kernel, (calls, secs) in stats().items():
            snap[f"kernels.{kernel}.calls"] = calls
            snap[f"kernels.{kernel}.seconds"] = secs
        return snap

    metrics.register_provider("kernels", provide)


# ----------------------------------------------------------------------
# The five kernels (public dispatch)
# ----------------------------------------------------------------------
def range_matvec(
    A: sp.csr_matrix,
    x: np.ndarray,
    start: int,
    stop: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``(A @ x)[start:stop]`` into a local-length vector.

    ``out`` must have length ``stop - start``; when omitted the plan's
    reusable local buffer is borrowed (valid until the next borrowing
    call for the same plan — hot loops should pass their own).
    """
    plan = plan_for(A, start, stop)
    if out is None:
        out = plan.out_local()
    if _stats.enabled:
        t0 = time.perf_counter()
        _backend.range_matvec(plan, x, out)
        _stats.bump("range_matvec", time.perf_counter() - t0)
    else:
        _backend.range_matvec(plan, x, out)
    return out


def range_residual(
    A: sp.csr_matrix,
    x: np.ndarray,
    b: np.ndarray,
    start: int,
    stop: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``(b - A x)[start:stop]`` into a local-length vector.

    Same buffer contract as :func:`range_matvec`.  With ``start=0,
    stop=n`` this is the fused full residual.
    """
    plan = plan_for(A, start, stop)
    if out is None:
        out = plan.out_local()
    if _stats.enabled:
        t0 = time.perf_counter()
        _backend.range_residual(plan, x, b, out)
        _stats.bump("range_residual", time.perf_counter() - t0)
    else:
        _backend.range_residual(plan, x, b, out)
    return out


def _block_operands(
    X: np.ndarray, nrows: int, out: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate/shape the ``(ncols, k)`` block input and ``(nrows, k)``
    output of the blocked kernels.

    ``X`` must be 2-D; a non-C-contiguous block is copied (scipy's
    ``csr_matvecs`` walks it row-major).  ``out`` is allocated fresh
    when omitted — the blocked kernels serve per-correction solves, not
    the per-micro-step loop, so they do not borrow plan buffers.
    """
    if X.ndim != 2:
        raise ValueError(f"blocked kernels need a 2-D (n, k) block, got {X.shape}")
    Xc = np.ascontiguousarray(X, dtype=np.float64)
    k = Xc.shape[1]
    if out is None:
        out = np.empty((nrows, k), dtype=np.float64)
    elif out.shape != (nrows, k):
        raise ValueError(f"out must have shape {(nrows, k)}, got {out.shape}")
    return Xc, out


def range_matvec_block(
    A: sp.csr_matrix,
    X: np.ndarray,
    start: int,
    stop: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``(A @ X)[start:stop, :]`` for an ``(n, k)`` RHS block.

    Column ``j`` of the result is bit-identical to
    ``range_matvec(A, X[:, j], start, stop)`` on every backend (same
    per-row left-to-right accumulation, one column at a time or fused).
    """
    plan = plan_for(A, start, stop)
    X, out = _block_operands(X, plan.nrows, out)
    if _stats.enabled:
        t0 = time.perf_counter()
        _backend.range_matvec_block(plan, X, out)
        _stats.bump("range_matvec_block", time.perf_counter() - t0)
    else:
        _backend.range_matvec_block(plan, X, out)
    return out


def range_residual_block(
    A: sp.csr_matrix,
    X: np.ndarray,
    B: np.ndarray,
    start: int,
    stop: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``(B - A X)[start:stop, :]`` for ``(n, k)`` iterate/RHS blocks.

    Same column-wise bit-parity contract as :func:`range_matvec_block`.
    """
    plan = plan_for(A, start, stop)
    X, out = _block_operands(X, plan.nrows, out)
    if B.ndim != 2 or B.shape[1] != X.shape[1]:
        raise ValueError(f"B must be (n, {X.shape[1]}), got {B.shape}")
    if _stats.enabled:
        t0 = time.perf_counter()
        _backend.range_residual_block(plan, X, B, out)
        _stats.bump("range_residual_block", time.perf_counter() - t0)
    else:
        _backend.range_residual_block(plan, X, B, out)
    return out


def jacobi_sweeps(
    A: sp.csr_matrix,
    dinv: np.ndarray,
    rhs: np.ndarray,
    x0: Optional[np.ndarray] = None,
    nsweeps: int = 1,
) -> np.ndarray:
    """``nsweeps`` fused diagonal sweeps ``y += dinv * (rhs - A y)``.

    Returns a fresh vector (the caller owns it); ``x0=None`` starts
    from zero.  This is the smoother hot loop of every diagonal
    smoother — per sweep it performs exactly one row pass and three
    elementwise passes, with the single temporary borrowed from the
    per-thread scratch pool.
    """
    if nsweeps < 0:
        raise ValueError("nsweeps must be non-negative")
    n = A.shape[0]
    y = np.zeros(n, dtype=np.float64) if x0 is None else np.array(
        x0, dtype=np.float64, copy=True
    )
    if nsweeps == 0:
        return y
    plan = plan_for(A, 0, n)
    tmp = scratch(n, slot=2)
    if _stats.enabled:
        t0 = time.perf_counter()
        for _ in range(nsweeps):
            _backend.jacobi_sweep(plan, dinv, rhs, y, tmp)
        _stats.bump("jacobi_sweep", time.perf_counter() - t0)
    else:
        for _ in range(nsweeps):
            _backend.jacobi_sweep(plan, dinv, rhs, y, tmp)
    return y


def prolong_add(
    y: np.ndarray, P: sp.csr_matrix, e: np.ndarray, omega: float = 1.0
) -> np.ndarray:
    """Fused correction prolongation ``y += omega * (P @ e)`` in place."""
    plan = plan_for(P, 0, P.shape[0])
    tmp = scratch(P.shape[0], slot=3)
    if _stats.enabled:
        t0 = time.perf_counter()
        _backend.prolong_add(plan, e, y, omega, tmp)
        _stats.bump("prolong_add", time.perf_counter() - t0)
    else:
        _backend.prolong_add(plan, e, y, omega, tmp)
    return y


def residual_norm(A: sp.csr_matrix, x: np.ndarray, b: np.ndarray) -> float:
    """``||b - A x||_2`` without a caller-visible temporary."""
    n = A.shape[0]
    plan = plan_for(A, 0, n)
    tmp = scratch(n, slot=4)
    if _stats.enabled:
        t0 = time.perf_counter()
        val = _backend.residual_norm(plan, x, b, tmp)
        _stats.bump("residual_norm", time.perf_counter() - t0)
        return val
    return _backend.residual_norm(plan, x, b, tmp)


# ----------------------------------------------------------------------
# Seed-API compatibility wrappers (full-length out, zeros elsewhere)
# ----------------------------------------------------------------------
def row_range_matvec(
    A: sp.csr_matrix,
    x: np.ndarray,
    start: int,
    stop: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``out[start:stop] = (A @ x)[start:stop]``, full-length ``out``.

    The historical :func:`repro.linalg.row_range_matvec` contract.
    When ``out`` is omitted the plan's cached full-length buffer is
    borrowed (zero outside the range, valid until the next borrowing
    call for the same plan) instead of allocating ``np.zeros(n)`` per
    call; callers that keep the result must pass their own ``out``.
    """
    plan = plan_for(A, start, stop)
    if out is None:
        out = plan.out_full()
    if stop > start:
        range_matvec(A, x, start, stop, out=out[start:stop])
    return out


def residual_rows(
    A: sp.csr_matrix,
    x: np.ndarray,
    b: np.ndarray,
    start: int,
    stop: int,
    out: np.ndarray,
) -> np.ndarray:
    """``out[start:stop] = (b - A x)[start:stop]`` in place."""
    if stop > start:
        range_residual(A, x, b, start, stop, out=out[start:stop])
    return out
