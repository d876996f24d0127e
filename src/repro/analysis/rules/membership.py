"""RPR008 — membership-state transition discipline.

The elastic layer's correctness argument (docs/ELASTICITY.md) rests on
a single-writer invariant: every piece of liveness/membership state —
the plain path's ``grid_down`` flags and the elastic path's per-rank
``alive`` / ``stall_until`` / ``rank_state`` / ``last_heard`` /
``rank_grid`` arrays — is mutated only through
:class:`repro.distributed.elastic.MembershipManager` transitions.  An
event handler that flips a rank-alive flag directly bypasses the
protocol (no suspect/evict bookkeeping, no telemetry, no repartition),
and the happens-before race checker can no longer reason about who
observed what.

The rule flags subscript or attribute assignment (plain or augmented)
whose terminal name is one of the protected arrays, anywhere in the
distributed simulator/elastic modules *outside* the body of
``class MembershipManager`` itself.
"""

from __future__ import annotations

import ast
from typing import List, Set, Tuple

from . import Finding, Rule

__all__ = ["MembershipTransitionRule"]

#: the liveness/membership arrays owned by MembershipManager
MEMBERSHIP_NAMES = frozenset(
    {
        "grid_down",
        "alive",
        "stall_until",
        "rank_state",
        "last_heard",
        "rank_grid",
        "no_ranks_left",
    }
)

_OWNER_CLASS = "MembershipManager"


def _state_name(node: ast.AST) -> str:
    """Terminal identifier of an assignment target: ``alive`` for
    ``mm.alive[r]``, ``self.rank_state[mask]`` or ``grid_down[g]``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


class MembershipTransitionRule(Rule):
    code = "RPR008"
    name = "membership-transition-discipline"
    description = (
        "liveness/membership state may only be mutated through "
        "MembershipManager transitions, never written directly from "
        "event handlers"
    )
    hint = (
        "call a MembershipManager method (mark_grid_down/up, apply_churn, "
        "scan, repartition) instead of writing the state array, or add "
        "'# repro: noqa[RPR008] <reason>'"
    )
    scope: Tuple[str, ...] = (
        "distributed/simulator.py",
        "distributed/elastic.py",
    )

    def check(self, tree: ast.AST, source: str, relpath: str) -> List[Finding]:
        owner_lines: Set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == _OWNER_CLASS:
                owner_lines.update(range(node.lineno, (node.end_lineno or node.lineno) + 1))
        findings: List[Finding] = []
        for node in ast.walk(tree):
            targets: List[ast.AST] = []
            if isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Assign):
                # A bare `alive = ...` only rebinds a local name; the
                # protected mutations are element writes and attribute
                # rebinds on a manager instance.
                targets = [
                    t
                    for t in node.targets
                    if isinstance(t, (ast.Subscript, ast.Attribute))
                ]
            for target in targets:
                name = _state_name(target)
                if name in MEMBERSHIP_NAMES and node.lineno not in owner_lines:
                    findings.append(
                        self.finding(
                            relpath,
                            node,
                            f"direct write to membership state {name!r} "
                            "outside MembershipManager",
                        )
                    )
        return findings
