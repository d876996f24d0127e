"""Whole-program static concurrency analysis.

Layers (each usable on its own):

- :mod:`~repro.analysis.static.cfg` — per-function control-flow graphs
  with ``with``-region markers;
- :mod:`~repro.analysis.static.dataflow` — forward worklist fixpoint
  engine plus the must-set lattice;
- :mod:`~repro.analysis.static.callgraph` — project call graph with
  alias-aware resolution (relative imports, re-exports, ``self.``
  methods, nested closures);
- :mod:`~repro.analysis.static.escape` — which arrays are *shared*
  (flow into handed-off worker closures), computed rather than
  name-matched;
- :mod:`~repro.analysis.static.lockset` — interprocedural must-hold
  locksets; produces the RPR009 (static race) and RPR010
  (lock-order) site reports;
- :mod:`~repro.analysis.static.baseline` — the findings ratchet;
- :mod:`~repro.analysis.static.sarif` — SARIF 2.1.0 export.

:func:`analyze_project` is the one-call entry the linter rules use; it
builds the call graph and escape facts once per :class:`ProjectIndex`
and memoizes on index identity.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..project import ProjectIndex
from .baseline import Baseline, apply_baseline, fingerprint
from .callgraph import CallGraph, build_callgraph
from .cfg import CFG, build_cfg
from .dataflow import solve
from .escape import EscapeInfo, analyze_escapes
from .lockset import LocksetReport, analyze_locksets
from .sarif import to_sarif, write_sarif

__all__ = [
    "CFG",
    "build_cfg",
    "solve",
    "CallGraph",
    "build_callgraph",
    "EscapeInfo",
    "analyze_escapes",
    "LocksetReport",
    "analyze_locksets",
    "analyze_project",
    "Baseline",
    "apply_baseline",
    "fingerprint",
    "to_sarif",
    "write_sarif",
]

#: memo: id(index) -> (index, callgraph, escapes, lockset report) — the
#: index reference is kept so the id cannot be recycled while cached
_CACHE: Dict[int, Tuple[ProjectIndex, CallGraph, Dict[str, EscapeInfo], LocksetReport]] = {}
_CACHE_LIMIT = 8


def analyze_project(index: ProjectIndex) -> Tuple[CallGraph, Dict[str, EscapeInfo], LocksetReport]:
    """Call graph + escape facts + lockset report for ``index``,
    computed once per index object (RPR009 and RPR010 share it)."""
    key = id(index)
    hit = _CACHE.get(key)
    if hit is not None and hit[0] is index:
        return hit[1], hit[2], hit[3]
    cg = build_callgraph(index)
    escapes = analyze_escapes(cg)
    report = analyze_locksets(cg, escapes)
    if len(_CACHE) >= _CACHE_LIMIT:
        _CACHE.clear()
    _CACHE[key] = (index, cg, escapes, report)
    return cg, escapes, report
