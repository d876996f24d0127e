"""RPR007 — no per-iteration array allocation in executor hot loops.

The kernel layer (:mod:`repro.kernels`) exists so the correction
loops run on preallocated plans and per-thread scratch buffers: a
``np.zeros(n)`` (or the ``np.repeat(np.arange(...))`` index rebuild
the pre-kernel SpMV paid on *every call*) inside an executor loop
allocates and zero-fills O(n) memory per correction, which at
benchmark sizes costs more than the arithmetic it feeds.  This rule
flags the allocating constructors — ``np.zeros`` / ``np.empty`` /
``np.ones`` / ``np.arange`` / ``np.repeat`` / ``np.zeros_like`` /
``np.empty_like`` — and ``.tocsr()`` / ``.tocsc()`` format
conversions inside any ``for``/``while`` loop of the executor modules
(``EXECUTOR_MODULES``).
Hoist the buffer out of the loop, take one from
:func:`repro.kernels.scratch`, or route the operation through a
kernel (which owns its temporaries).  Allocations that are genuinely
per-iteration (e.g. an array that outlives the iteration as part of a
result or message payload) carry a justified
``# repro: noqa[RPR007] <why>``.
"""

from __future__ import annotations

import ast
from typing import List, Set

from . import EXECUTOR_MODULES, Finding, Rule

__all__ = ["HotLoopAllocationRule"]

#: numpy constructors that allocate (and for zeros/ones, fill) per call.
_ALLOC_FUNCS = {
    "zeros",
    "empty",
    "ones",
    "arange",
    "repeat",
    "zeros_like",
    "empty_like",
}

#: sparse format conversions — a full copy of the matrix per call.
_CONVERT_METHODS = {"tocsr", "tocsc"}


class HotLoopAllocationRule(Rule):
    code = "RPR007"
    name = "hot-loop-allocation"
    description = (
        "no per-iteration numpy allocation (np.zeros/np.empty/"
        "np.arange/np.repeat/...) or sparse .tocsr() conversion "
        "inside executor correction loops"
    )
    hint = (
        "hoist the buffer above the loop, borrow repro.kernels."
        "scratch(), or route the operation through a repro.kernels "
        "kernel"
    )
    scope = EXECUTOR_MODULES

    def check(self, tree: ast.AST, source: str, relpath: str) -> List[Finding]:
        findings: List[Finding] = []
        np_aliases: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        np_aliases.add(alias.asname or "numpy")
        if not np_aliases:
            np_aliases.add("np")  # conventional fallback

        def allocation(call: ast.Call) -> str:
            fn = call.func
            if not isinstance(fn, ast.Attribute):
                return ""
            base = fn.value
            if fn.attr in _ALLOC_FUNCS:
                if isinstance(base, ast.Name) and base.id in np_aliases:
                    return f"{base.id}.{fn.attr}()"
            if fn.attr in _CONVERT_METHODS and not call.args and not call.keywords:
                return f".{fn.attr}()"
            return ""

        seen: Set[int] = set()  # nested loops: report each call once
        for loop in ast.walk(tree):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in ast.walk(loop):
                if not isinstance(node, ast.Call) or id(node) in seen:
                    continue
                what = allocation(node)
                if what:
                    seen.add(id(node))
                    findings.append(
                        self.finding(
                            relpath,
                            node,
                            f"{what} inside an executor loop — O(n) "
                            "allocation per iteration; preallocate or "
                            "use repro.kernels scratch/plan buffers",
                        )
                    )
        return findings
