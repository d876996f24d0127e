"""Rule base classes and the RPR rule registry.

Each rule is an AST pass with a stable code (``RPR001`` ...), a
one-line description, and a fixit hint.  A rule may restrict itself to
specific files (``scope`` — path suffixes relative to the linted
root); rules with an empty scope apply everywhere.  Findings on a line
carrying ``# repro: noqa[RPRxxx] <justification>`` are suppressed by
the linter (in ``--strict`` mode only when the justification is
non-empty — a bare noqa is a finding of its own kind).
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..project import ParsedModule, ProjectIndex

__all__ = ["EXECUTOR_MODULES", "Finding", "Rule", "ALL_RULES", "rule_by_code"]

#: Every module holding a correction loop or the supervisor loop of an
#: asynchronous executor — the scope of the hot-loop rules (RPR001,
#: RPR006, RPR007).
EXECUTOR_MODULES: Tuple[str, ...] = (
    "core/run.py",
    "core/engine.py",
    "core/threaded.py",
    "core/parallel.py",
    "distributed/simulator.py",
    "serve/batch.py",
)


@dataclass
class Finding:
    """One linter finding, pointing at a source line."""

    code: str
    message: str
    path: str
    line: int
    col: int = 0
    hint: str = ""
    suppressed: bool = False
    justification: str = ""
    start_line: int = 0
    """First line of the flagged construct (a decorator, when the node
    is a decorated def).  0 means "same as ``line``"."""
    end_line: int = 0
    """Last line of the flagged statement's *header* — a ``noqa`` on
    any line in ``[start, end_line]`` suppresses the finding, which is
    what makes suppression work on decorated defs and statements whose
    header wraps across lines.  0 means "same as ``line``"."""

    @property
    def span_start(self) -> int:
        return self.start_line or self.line

    @property
    def span_end(self) -> int:
        return max(self.end_line or self.line, self.line)

    def format(self) -> str:
        loc = f"{self.path}:{self.line}:{self.col + 1}"
        text = f"{loc}: {self.code} {self.message}"
        if self.hint:
            text += f"  [fixit: {self.hint}]"
        return text


def _header_span(node: ast.AST) -> Tuple[int, int]:
    """``(start, end)`` lines of a node's suppression span.

    For compound statements the span is the *header* only (``def``/
    ``for``/``with`` line(s) up to — not including — the first body
    statement); for decorated defs it starts at the first decorator.
    A ``noqa`` anywhere in the span anchors to the finding.
    """
    line = getattr(node, "lineno", 1)
    start = line
    decorators = getattr(node, "decorator_list", None)
    if decorators:
        start = min([line] + [getattr(d, "lineno", line) for d in decorators])
    end = getattr(node, "end_lineno", None) or line
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and hasattr(body[0], "lineno"):
        end = min(end, body[0].lineno - 1)
    return start, max(line, end)


class Rule(ABC):
    """One static-analysis rule (an AST pass over a single module)."""

    code: str = "RPR000"
    name: str = "abstract"
    description: str = ""
    hint: str = ""
    #: path suffixes this rule applies to; empty = every file
    scope: Tuple[str, ...] = ()
    #: True for whole-program rules — the linter calls
    #: :meth:`check_project` once per run instead of
    #: :meth:`check_module` per file
    project_wide: bool = False

    def applies_to(self, relpath: str) -> bool:
        if not self.scope:
            return True
        norm = relpath.replace("\\", "/")
        return any(norm.endswith(suffix) for suffix in self.scope)

    @abstractmethod
    def check(self, tree: ast.AST, source: str, relpath: str) -> List[Finding]:
        """Return the findings for one parsed module."""

    def check_module(self, module: "ParsedModule") -> List[Finding]:
        """Check one pre-parsed module (the shared-cache entry point —
        the tree is parsed once per run, not once per rule)."""
        return self.check(module.tree, module.source, module.relpath)

    def check_project(self, index: "ProjectIndex") -> List[Finding]:
        """Whole-program entry point for ``project_wide`` rules."""
        raise NotImplementedError(f"{self.code} is not a project-wide rule")

    def finding(self, relpath: str, node: ast.AST, message: str) -> Finding:
        start, end = _header_span(node)
        return Finding(
            code=self.code,
            message=message,
            path=relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            hint=self.hint,
            start_line=start,
            end_line=end,
        )


def _collect_rules() -> List[Rule]:
    # Imported here (not at module top) so the registry and the rule
    # modules cannot form an import cycle.
    from .bounded_queues import BoundedQueueRule
    from .fork_safety import ForkSafetyRule
    from .hot_alloc import HotLoopAllocationRule
    from .hot_path import HotPathEmissionRule
    from .interproc_lock_order import InterprocLockOrderRule
    from .live_callbacks import LiveCallbackBlockingRule
    from .lock_order import LockOrderRule
    from .membership import MembershipTransitionRule
    from .result_contract import ResultContractRule
    from .rng import SeededRngRule
    from .shared_writes import SharedWriteDisciplineRule
    from .static_race import StaticRaceRule
    from .timing import WallClockRule

    classes: List[Type[Rule]] = [
        SharedWriteDisciplineRule,
        LockOrderRule,
        SeededRngRule,
        WallClockRule,
        ResultContractRule,
        HotPathEmissionRule,
        HotLoopAllocationRule,
        MembershipTransitionRule,
        StaticRaceRule,
        InterprocLockOrderRule,
        LiveCallbackBlockingRule,
        ForkSafetyRule,
        BoundedQueueRule,
    ]
    rules = [cls() for cls in classes]
    codes = [r.code for r in rules]
    if len(set(codes)) != len(codes):  # pragma: no cover - registry bug
        raise RuntimeError(f"duplicate rule codes: {codes}")
    return rules


ALL_RULES: List[Rule] = _collect_rules()


def rule_by_code(code: str) -> Rule:
    """Look up a registered rule by its ``RPRxxx`` code."""
    for rule in ALL_RULES:
        if rule.code == code:
            return rule
    raise KeyError(f"unknown rule code {code!r}; known: {[r.code for r in ALL_RULES]}")
