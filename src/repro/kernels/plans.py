"""Per-``(matrix, row-range)`` kernel plans.

The seed row-range SpMV rebuilt its row-index machinery
(``np.repeat(np.arange(...))``) and a full-length zero output vector
on *every* micro-step — pure overhead
in the steady-state loop, where the matrix and the owned row range
never change.  A :class:`RowRangePlan` hoists everything that depends
only on ``(A, start, stop)`` out of the hot path:

- the absolute ``indptr`` window of the range (what the CSR kernels
  index with),
- the lazily-built local row map (only the bincount fallback needs it),
- a reusable output buffer for the ``out=None`` convenience path.

Plans are cached per matrix *object* (``id``-keyed with a weakref
cleanup so a collected matrix drops its plans) and validated by array
identity: a plan stores references to the matrix's ``indptr`` /
``indices`` / ``data`` arrays, so

- **in-place value edits** (``A.data[...] = ...``) flow through the
  shared reference and never stale a plan, while
- **structural mutation** (anything that rebinds ``A.indptr`` /
  ``A.indices`` / ``A.data`` — ``A[i, j] = v`` on a new position,
  ``sum_duplicates`` after construction, ...) changes array identity
  and forces a rebuild on the next lookup.

Plans' precomputed fields are immutable after construction, so sharing
one plan across worker threads is safe; the *scratch buffers* are the
only mutable state and are handed out per-thread (see
:func:`scratch`).
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = ["RowRangePlan", "plan_for", "clear_plans", "plan_cache_info", "scratch"]


class RowRangePlan:
    """Precomputed index machinery for one ``(matrix, row range)``."""

    __slots__ = (
        "n",
        "ncols",
        "start",
        "stop",
        "indptr",
        "indices",
        "data",
        "indptr_window",
        "_local_rows",
        "_out_local",
        "__weakref__",
    )

    def __init__(self, A: sp.csr_matrix, start: int, stop: int) -> None:
        n = A.shape[0]
        if not (0 <= start <= stop <= n):
            raise ValueError(f"bad row range ({start}, {stop}) for n={n}")
        self.n = int(n)
        self.ncols = int(A.shape[1])
        self.start = int(start)
        self.stop = int(stop)
        # Identity anchors: the plan is valid exactly as long as the
        # matrix still carries these arrays (see module docstring).
        self.indptr = A.indptr
        self.indices = A.indices
        self.data = A.data
        #: absolute offsets into indices/data for rows [start, stop]
        self.indptr_window = np.ascontiguousarray(A.indptr[start : stop + 1])
        self._local_rows: Optional[np.ndarray] = None
        self._out_local: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        return self.stop - self.start

    def matches(self, A: sp.csr_matrix) -> bool:
        """True while ``A`` still carries the arrays the plan captured."""
        return (
            self.indptr is A.indptr
            and self.indices is A.indices
            and self.data is A.data
        )

    @property
    def local_rows(self) -> np.ndarray:
        """Row index per nonzero of the range, 0-based at ``start``.

        Built on first use (only the bincount fallback path needs it);
        this is exactly the ``np.repeat(np.arange(...))`` product the
        seed code rebuilt per call.
        """
        if self._local_rows is None:
            self._local_rows = np.repeat(
                np.arange(self.nrows), np.diff(self.indptr_window)
            )
        return self._local_rows

    def out_local(self) -> np.ndarray:
        """Reusable ``(stop - start,)`` output buffer.

        Owned by the plan: the contents are only valid until the next
        borrowing call for the same plan.  Hot loops that keep results
        across calls must pass their own ``out``.
        """
        if self._out_local is None:
            self._out_local = np.empty(self.nrows, dtype=np.float64)
        return self._out_local


# Plan cache: id(A) -> (weakref(A), {(start, stop): plan}).  The
# weakref callback evicts the entry when the matrix is collected, so a
# recycled id can never serve another matrix's plans; array-identity
# validation in plan_for covers the in-between mutations.
_CacheEntry = Tuple["weakref.ref[sp.csr_matrix]", Dict[Tuple[int, int], RowRangePlan]]
_PLANS: Dict[int, _CacheEntry] = {}
_HITS = 0
_MISSES = 0


def plan_for(A: sp.csr_matrix, start: int, stop: int) -> RowRangePlan:
    """Fetch (or build) the plan for ``A`` rows ``[start, stop)``.

    Lookup is two dict probes plus three identity checks; a structural
    mutation of ``A`` (rebound CSR arrays) invalidates transparently.
    Safe to call from concurrent worker threads: plans are immutable
    and the worst race outcome is a redundant rebuild.
    """
    global _HITS, _MISSES
    key = id(A)
    entry = _PLANS.get(key)
    if entry is None or entry[0]() is not A:
        ref = weakref.ref(A, lambda _ref, _key=key: _PLANS.pop(_key, None))
        entry = (ref, {})
        _PLANS[key] = entry
    plans = entry[1]
    plan = plans.get((start, stop))
    if plan is None or not plan.matches(A):
        plan = RowRangePlan(A, start, stop)
        plans[(start, stop)] = plan
        _MISSES += 1
    else:
        _HITS += 1
    return plan


def clear_plans() -> None:
    """Drop every cached plan (tests / memory pressure)."""
    global _HITS, _MISSES
    _PLANS.clear()
    _HITS = 0
    _MISSES = 0


def plan_cache_info() -> Dict[str, int]:
    """Cache statistics: matrices, plans, hits, misses."""
    return {
        "matrices": len(_PLANS),
        "plans": sum(len(entry[1]) for entry in _PLANS.values()),
        "hits": _HITS,
        "misses": _MISSES,
    }


# ----------------------------------------------------------------------
# Per-thread scratch vectors.
#
# Kernels that need a temporary (fused residual norm, Jacobi sweeps,
# prolongation adds) borrow it here instead of allocating: each thread
# owns its buffers, so the threaded executor's workers never contend
# or alias, and the steady-state loop performs zero allocations.
# ----------------------------------------------------------------------
_scratch_local = threading.local()


def scratch(n: int, slot: int = 0) -> np.ndarray:
    """A per-thread float64 scratch vector of length ``n``.

    ``slot`` separates simultaneously-live temporaries of the same
    length within one kernel call chain.  Contents are undefined on
    entry and only valid until the next ``scratch`` borrow of the same
    ``(n, slot)`` on the same thread.
    """
    buffers = getattr(_scratch_local, "buffers", None)
    if buffers is None:
        buffers = {}
        _scratch_local.buffers = buffers
    buf = buffers.get((n, slot))
    if buf is None:
        buf = np.empty(n, dtype=np.float64)
        buffers[(n, slot)] = buf
    return buf
