"""RPR013 — the serve layer must never block unboundedly.

The solve server's whole robustness contract (``repro.serve``) rests
on two invariants: every queue has a depth bound so overload turns
into explicit backpressure (``rejected``/``shed``) instead of memory
growth, and every blocking primitive carries a timeout so a stuck
worker or a dead peer degrades a request instead of hanging a thread
forever.  One unbounded ``Queue()`` or bare ``.get()`` quietly voids
both — the server "works" until the first overload or crash, which is
exactly when it must not.

This rule flags, in any module under a ``serve/`` directory:

- construction of an unbounded queue — ``Queue``/``LifoQueue``/
  ``PriorityQueue``/``JoinableQueue`` with no ``maxsize`` or a
  constant ``maxsize <= 0``, ``deque`` with no ``maxlen`` or a
  constant ``maxlen=None``, and ``SimpleQueue`` always (it cannot be
  bounded);
- blocking calls with no bound — zero-positional-argument ``.get()``,
  ``.join()``, ``.acquire()``, or ``.wait()`` without a ``timeout``
  keyword (a ``blocking=False``/``block=False`` keyword also counts
  as bounded: it cannot wait at all).

A variable ``maxsize``/``maxlen`` and a positional timeout
(``t.join(2.0)``) are accepted — the rule only flags what it can prove
unbounded.  A deque whose depth the code bounds some other way (the
admission queue checks ``max_depth`` on every offer) carries a
justified ``noqa[RPR013]``.
``dict.get(key)`` / ``", ".join(parts)`` carry positional arguments
and are never flagged.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from . import Finding, Rule

__all__ = ["BoundedQueueRule"]

#: queue constructors that accept (and must receive) a positive maxsize.
_BOUNDABLE_QUEUES = {"Queue", "LifoQueue", "PriorityQueue", "JoinableQueue"}

#: queue constructors with no bounding knob at all.
_UNBOUNDABLE_QUEUES = {"SimpleQueue"}

#: method calls that block forever when called with no arguments.
_BLOCKING_METHODS = {"get", "join", "acquire", "wait"}


def _call_name(call: ast.Call) -> str:
    fn = call.func
    if isinstance(fn, ast.Name):
        return fn.id
    if isinstance(fn, ast.Attribute):
        return fn.attr
    return ""


def _bound_arg(call: ast.Call, position: int, keyword: str) -> Optional[ast.expr]:
    """The bound expression of a constructor (``maxsize`` of a queue is
    its first argument, ``maxlen`` of a deque its second)."""
    if len(call.args) > position:
        return call.args[position]
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


class BoundedQueueRule(Rule):
    code = "RPR013"
    name = "serve-bounded-blocking"
    description = (
        "serve-layer queues must be depth-bounded and its blocking "
        "calls (get/join/acquire/wait) must carry timeouts"
    )
    hint = (
        "construct queues with a positive maxsize and deques with a "
        "maxlen (or use the bounded AdmissionQueue) and pass timeout= "
        "to every blocking wait so overload and crashes surface as "
        "rejected/degraded, not hangs"
    )
    #: any module under a serve/ directory (see :meth:`applies_to`).
    scope = ("serve/",)

    def applies_to(self, relpath: str) -> bool:
        norm = relpath.replace("\\", "/")
        return "serve" in norm.split("/")[:-1]

    def check(self, tree: ast.AST, source: str, relpath: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name in _UNBOUNDABLE_QUEUES:
                findings.append(
                    self.finding(
                        relpath,
                        node,
                        f"{name}() cannot be bounded — overload becomes "
                        "silent memory growth instead of backpressure",
                    )
                )
                continue
            if name == "deque":
                maxlen = _bound_arg(node, 1, "maxlen")
                if maxlen is None or (
                    isinstance(maxlen, ast.Constant) and maxlen.value is None
                ):
                    findings.append(
                        self.finding(
                            relpath,
                            node,
                            "unbounded deque() — give it a maxlen, or bound "
                            "its depth where it grows and say so in a noqa",
                        )
                    )
                continue
            if name in _BOUNDABLE_QUEUES:
                maxsize = _bound_arg(node, 0, "maxsize")
                unbounded = maxsize is None or (
                    isinstance(maxsize, ast.Constant)
                    and isinstance(maxsize.value, (int, float))
                    and maxsize.value <= 0
                )
                if unbounded:
                    findings.append(
                        self.finding(
                            relpath,
                            node,
                            f"unbounded {name}() — the serve layer must "
                            "turn overload into explicit rejection, "
                            "never an unbounded queue",
                        )
                    )
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _BLOCKING_METHODS
                and not node.args
            ):
                kwargs = {kw.arg: kw.value for kw in node.keywords}
                if "timeout" in kwargs:
                    continue
                nonblocking = any(
                    isinstance(kwargs.get(k), ast.Constant)
                    and kwargs[k].value is False
                    for k in ("blocking", "block")
                )
                if nonblocking:
                    continue
                findings.append(
                    self.finding(
                        relpath,
                        node,
                        f".{node.func.attr}() with no timeout — a stuck "
                        "peer hangs this thread forever instead of "
                        "degrading the request",
                    )
                )
        return findings
