"""RPR006 — hot-path event emission only through the Tracer API.

The observability layer (:mod:`repro.observe`) exists so that the
correction loops never pay for their own reporting: events go into
per-worker ring buffers with no locking, formatting, or I/O on the hot
path.  A ``print()`` or ``logging`` call inside a backend's solve loop
reintroduces exactly the costs the tracer avoids — stream locks
serialize the workers, formatting allocates, and a single debug print
inside a threaded correction loop can dominate a small solve.  This
rule flags ``print`` and ``logging``/logger calls that appear inside
any ``for``/``while`` loop of the executor modules
(``EXECUTOR_MODULES``); emit a typed event
through :meth:`repro.observe.Tracer.record` (or ``record_here``)
instead, and let the exporters do the formatting after the run.
"""

from __future__ import annotations

import ast
from typing import List, Set

from . import EXECUTOR_MODULES, Finding, Rule

__all__ = ["HotPathEmissionRule"]

#: logging methods whose call inside a loop means formatting + stream
#: locking on the hot path (the module-level ``logging.*`` helpers and
#: the bound ``Logger`` methods share these names).
_LOG_METHODS = {
    "debug",
    "info",
    "warning",
    "warn",
    "error",
    "exception",
    "critical",
    "log",
}


class HotPathEmissionRule(Rule):
    code = "RPR006"
    name = "hot-path-emission"
    description = (
        "no print()/logging inside executor correction loops; "
        "hot-path events must go through the Tracer ring buffers"
    )
    hint = (
        "record a typed event via Tracer.record()/record_here() and "
        "export it after the run"
    )
    scope = EXECUTOR_MODULES

    def check(self, tree: ast.AST, source: str, relpath: str) -> List[Finding]:
        findings: List[Finding] = []
        logging_aliases: Set[str] = set()
        logger_names: Set[str] = set()

        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "logging":
                        logging_aliases.add(alias.asname or "logging")
            elif isinstance(node, ast.Assign):
                # `log = logging.getLogger(...)` — track the bound name.
                call = node.value
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "getLogger"
                ):
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name):
                            logger_names.add(tgt.id)

        def emission(call: ast.Call) -> str:
            fn = call.func
            if isinstance(fn, ast.Name) and fn.id == "print":
                return "print()"
            if isinstance(fn, ast.Attribute) and fn.attr in _LOG_METHODS:
                base = fn.value
                if isinstance(base, ast.Name) and (
                    base.id in logging_aliases or base.id in logger_names
                ):
                    return f"{base.id}.{fn.attr}()"
            return ""

        seen: Set[int] = set()  # nested loops: report each call once
        for loop in ast.walk(tree):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in ast.walk(loop):
                if not isinstance(node, ast.Call) or id(node) in seen:
                    continue
                what = emission(node)
                if what:
                    seen.add(id(node))
                    findings.append(
                        self.finding(
                            relpath,
                            node,
                            f"{what} inside an executor loop — emission "
                            "on the hot path bypasses the tracer's "
                            "per-worker ring buffers",
                        )
                    )
        return findings
