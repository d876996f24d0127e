"""RPR011 — live snapshot/alert callbacks must not block.

The live telemetry layer (:mod:`repro.observe.live`) runs its anomaly
detectors and ``on_*`` callbacks on the collector thread, between ring
-buffer tail reads.  A blocking call there — ``time.sleep``, file or
socket I/O, a lock ``acquire`` — stretches the collection cadence,
lets per-worker rings overwrite unseen events (``dropped`` climbs),
and in the worst case deadlocks against an executor holding the same
lock.  Detectors are pure functions over a residual window; anything
that needs I/O belongs in the designated sinks (:class:`SnapshotWriter`
flushes on its own schedule, the metrics server owns its sockets), not
in ``update``/``_check`` or an ``on_*`` handler.

This rule flags, inside any function named ``on_*``/``_on_*`` and
inside the ``update``/``_check`` methods of ``*Detector``
classes: ``time.sleep``/``sleep`` calls, ``open()``, blocking socket
methods (``connect``/``accept``/``recv``/``recvfrom``/``send``/
``sendall``), lock ``.acquire()``, and file-like ``.write()``/
``.flush()``/``.read()``/``.readline()`` calls.
"""

from __future__ import annotations

import ast
from typing import List, Set

from . import Finding, Rule

__all__ = ["LiveCallbackBlockingRule"]

#: method names whose call means potentially-blocking I/O or lock wait.
_BLOCKING_METHODS = {
    "acquire",
    "connect",
    "accept",
    "recv",
    "recvfrom",
    "send",
    "sendall",
    "write",
    "flush",
    "read",
    "readline",
}


def _callback_defs(tree: ast.AST) -> List[ast.FunctionDef]:
    """The defs this rule audits: ``on_*`` functions anywhere, plus
    ``update``/``_check`` methods of ``*Detector`` classes."""
    out: List[ast.FunctionDef] = []
    detector_methods = {"update", "_check"}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            if node.name.startswith("on_") or node.name.startswith("_on_"):
                out.append(node)
        elif isinstance(node, ast.ClassDef) and node.name.endswith("Detector"):
            for item in node.body:
                if (
                    isinstance(item, ast.FunctionDef)
                    and item.name in detector_methods
                ):
                    out.append(item)
    return out


class LiveCallbackBlockingRule(Rule):
    code = "RPR011"
    name = "live-callback-blocking"
    description = (
        "no blocking calls (sleep, file/socket I/O, lock acquire) "
        "inside live snapshot/alert callbacks or detector updates"
    )
    hint = (
        "keep detectors pure; route I/O through SnapshotWriter / "
        "MetricsServer, which own their own threads and flush schedule"
    )
    scope = (
        "observe/live.py",
        "observe/alerts.py",
        "observe/profiler.py",
    )

    def check(self, tree: ast.AST, source: str, relpath: str) -> List[Finding]:
        findings: List[Finding] = []
        time_aliases: Set[str] = set()
        bare_sleep_fns: Set[str] = set()  # `from time import sleep [as s]`

        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "sleep":
                        bare_sleep_fns.add(alias.asname or "sleep")

        def blocking(call: ast.Call) -> str:
            fn = call.func
            if isinstance(fn, ast.Name):
                if fn.id == "open":
                    return "open()"
                if fn.id in bare_sleep_fns:
                    return f"{fn.id}()"
            if isinstance(fn, ast.Attribute):
                if (
                    fn.attr == "sleep"
                    and isinstance(fn.value, ast.Name)
                    and fn.value.id in time_aliases
                ):
                    return f"{fn.value.id}.sleep()"
                if fn.attr in _BLOCKING_METHODS:
                    return f".{fn.attr}()"
            return ""

        seen: Set[int] = set()  # nested defs: report each call once
        for cb in _callback_defs(tree):
            for node in ast.walk(cb):
                if not isinstance(node, ast.Call) or id(node) in seen:
                    continue
                what = blocking(node)
                if what:
                    seen.add(id(node))
                    findings.append(
                        self.finding(
                            relpath,
                            node,
                            f"{what} inside live callback "
                            f"'{cb.name}' — blocking work on the "
                            "collector thread stalls the snapshot "
                            "cadence and can drop ring-buffer events",
                        )
                    )
        return findings
