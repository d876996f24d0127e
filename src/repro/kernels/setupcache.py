"""Hierarchy setup cache — memoized AMG setup across repeated runs.

The paper's timing experiments (Table I, Figs. 4-6) average many runs
of the same problem; the reproduction's benchmark harnesses do the
same.  AMG setup — strength, coarsening, interpolation, Galerkin
products — is a pure function of ``(matrix, options)`` and costs far
more than a lookup: about 0.1 s cold for 5pt 96² and 0.7–0.8 s for
5pt 256², against milliseconds for a hit (docs/PERFORMANCE.md).  This
module memoizes it:

- :func:`cached_setup_hierarchy` keys on a content hash of the matrix
  (shape + CSR array bytes) plus the full ``SetupOptions`` tuple, so
  two *equal* matrices share a hierarchy even when they are distinct
  objects (each benchmark repetition rebuilds its problem).
- :func:`cached_smoothed_interpolants` memoizes Multadd's smoothed
  interpolants ``P̄ᵏₖ₊₁ = G_k Pᵏₖ₊₁`` per ``(hierarchy, kind,
  weight)`` directly on the hierarchy object, so building several
  solver variants over one hierarchy (the Table-I harness does) pays
  for the triple products once.

The cache is process-local and bounded (LRU, small: hierarchies are
large).  Correctness relies on hierarchies being treated as immutable
after setup — which every solver in the repo already assumes.  Callers
that mutate a matrix between runs get a fresh hierarchy automatically
(the content hash changes); :func:`clear_setup_cache` is the explicit
reset for tests.

**Thread safety.**  The solve server (:mod:`repro.serve`) hits this
cache from a pool of worker threads with mixed-tenant keys, so every
access to the LRU dict and its counters goes through one module lock.
The expensive part — :func:`repro.amg.setup_hierarchy` itself — runs
*outside* the lock: two threads missing on the same key may both build
the hierarchy, but the first insertion wins (both callers still get a
usable hierarchy, and later calls converge on the cached one), so the
lock is only ever held for dict-sized critical sections, never for
seconds of AMG setup.  :func:`register_setupcache_metrics` exposes the
hit/miss/eviction counters to a :class:`repro.observe.Metrics`
registry as a provider.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import astuple
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..amg import Hierarchy, SetupOptions, setup_hierarchy, smoothed_interpolants
from ..linalg import as_csr

__all__ = [
    "problem_fingerprint",
    "cached_setup_hierarchy",
    "adopt_hierarchy",
    "cached_smoothed_interpolants",
    "clear_setup_cache",
    "setup_cache_info",
    "register_setupcache_metrics",
]

#: Retained hierarchies; small on purpose — a 256² hierarchy is ~10 MB.
_MAX_ENTRIES = 8

_CACHE: "OrderedDict[Tuple[str, tuple, Optional[bytes]], Hierarchy]" = OrderedDict()
#: Guards ``_CACHE`` and the counters below.  Never held across
#: ``setup_hierarchy`` (the multi-second part) — only across dict ops.
_CACHE_LOCK = threading.Lock()
_HITS = 0
_MISSES = 0
_EVICTIONS = 0
#: Misses that lost the build race: the key appeared while this thread
#: was computing the hierarchy outside the lock (first insertion wins).
_RACE_LOSSES = 0


def problem_fingerprint(A: sp.spmatrix) -> str:
    """Content hash of a matrix: shape + canonical CSR array bytes.

    blake2b over ~``16 * nnz`` bytes — microseconds at benchmark sizes,
    amortized against seconds of AMG setup.
    """
    A = as_csr(A)
    h = hashlib.blake2b(digest_size=16)
    h.update(np.asarray(A.shape, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(A.indptr).tobytes())
    h.update(np.ascontiguousarray(A.indices).tobytes())
    h.update(np.ascontiguousarray(A.data).tobytes())
    return h.hexdigest()


def _insert_locked(key: Tuple[str, tuple, Optional[bytes]], hier: Hierarchy) -> None:
    """Insert under the already-held lock, evicting LRU overflow."""
    global _EVICTIONS
    _CACHE[key] = hier
    while len(_CACHE) > _MAX_ENTRIES:
        _CACHE.popitem(last=False)
        _EVICTIONS += 1


def cached_setup_hierarchy(
    A: sp.spmatrix,
    options: Optional[SetupOptions] = None,
    functions: Optional[np.ndarray] = None,
) -> Hierarchy:
    """Memoizing drop-in for :func:`repro.amg.setup_hierarchy`.

    Safe under concurrent mixed-key access: lookups and insertions are
    serialized by the module lock, while the AMG setup itself runs
    unlocked (a lost build race is counted, not an error).
    """
    global _HITS, _MISSES, _RACE_LOSSES
    opts = options or SetupOptions()
    key = (
        problem_fingerprint(A),
        astuple(opts),
        None if functions is None else np.asarray(functions, dtype=np.int64).tobytes(),
    )
    with _CACHE_LOCK:
        hier = _CACHE.get(key)
        if hier is not None:
            _CACHE.move_to_end(key)
            _HITS += 1
            return hier
        _MISSES += 1
    built = setup_hierarchy(A, opts, functions=functions)
    with _CACHE_LOCK:
        hier = _CACHE.get(key)
        if hier is not None:
            # Another thread won the build race; converge on its copy.
            _CACHE.move_to_end(key)
            _RACE_LOSSES += 1
            return hier
        _insert_locked(key, built)
    return built


def adopt_hierarchy(hierarchy: Hierarchy, fingerprint: str) -> None:
    """Seed the cache with an externally built hierarchy.

    The procs backend ships a pickled hierarchy to worker processes;
    adopting it under the parent-computed content hash makes the
    worker's cache warm, so any later ``cached_setup_hierarchy`` call
    for the same ``(matrix, options)`` — e.g. a solver rebuilt inside
    the worker — reuses the shipped setup instead of redoing it.
    Existing entries win (first adoption sticks).
    """
    key = (fingerprint, astuple(hierarchy.options), None)
    with _CACHE_LOCK:
        if key not in _CACHE:
            _insert_locked(key, hierarchy)


def cached_smoothed_interpolants(
    hierarchy: Hierarchy, kind: str = "jacobi", weight: float = 0.9
) -> List[sp.csr_matrix]:
    """Memoizing drop-in for :func:`repro.amg.smoothed_interpolants`.

    The result list is cached on the hierarchy object itself, so its
    lifetime tracks the hierarchy's and a cached hierarchy reused
    across benchmark repetitions also reuses its interpolants.

    Concurrent callers for the same hierarchy may both compute the
    interpolants; ``setdefault`` makes the first store win and both
    callers return the same (immutable-after-build) list thereafter.
    """
    cache: Dict[Tuple[str, float], List[sp.csr_matrix]]
    cache = getattr(hierarchy, "_pbar_cache", None)  # type: ignore[assignment]
    if cache is None:
        with _CACHE_LOCK:
            cache = getattr(hierarchy, "_pbar_cache", None)  # type: ignore[assignment]
            if cache is None:
                cache = {}
                hierarchy._pbar_cache = cache  # type: ignore[attr-defined]
    key = (kind, float(weight))
    got = cache.get(key)
    if got is None:
        built = smoothed_interpolants(hierarchy, kind=kind, weight=weight)
        got = cache.setdefault(key, built)
    return got


def clear_setup_cache() -> None:
    """Drop every memoized hierarchy (tests / memory pressure)."""
    global _HITS, _MISSES, _EVICTIONS, _RACE_LOSSES
    with _CACHE_LOCK:
        _CACHE.clear()
        _HITS = 0
        _MISSES = 0
        _EVICTIONS = 0
        _RACE_LOSSES = 0


def setup_cache_info() -> Dict[str, int]:
    """Cache statistics: entries, hits, misses, evictions, race losses."""
    with _CACHE_LOCK:
        return {
            "entries": len(_CACHE),
            "hits": _HITS,
            "misses": _MISSES,
            "evictions": _EVICTIONS,
            "race_losses": _RACE_LOSSES,
        }


def register_setupcache_metrics(metrics: Any, name: str = "setupcache") -> None:
    """Register the cache counters as a :class:`repro.observe.Metrics`
    provider: ``setupcache.hits`` / ``.misses`` / ``.evictions`` /
    ``.entries`` / ``.race_losses`` in every ``collect()`` snapshot."""

    def provide() -> Dict[str, float]:
        return {k: float(v) for k, v in setup_cache_info().items()}

    metrics.register_provider(name, provide)
