"""RPR001 — shared-write discipline.

The convergence results of the paper (and everything
``repro.analysis.racecheck`` verifies dynamically) assume that *every*
mutation of the shared iterate ``x`` and shared residual ``r`` goes
through a :class:`repro.core.writes.WritePolicy`, which owns the
synchronization.  A bare ``x += e`` or ``r[lo:hi] = fresh`` in an
executor bypasses the policy: under real threads it is a lost-update /
torn-write race, and even in the sequential executors it silently
changes which consistency model the run implements.

The rule flags direct mutation (augmented assignment, or subscript
assignment) of the shared vectors in the executor modules
(``EXECUTOR_MODULES``).  The sequential engine and the discrete-event
simulator *are* their own serialization points — their commit sites
carry
``# repro: noqa[RPR001] <why this is the serialization point>``.
"""

from __future__ import annotations

import ast
from typing import List

from . import EXECUTOR_MODULES, Finding, Rule

__all__ = ["SharedWriteDisciplineRule"]

#: the shared vectors each executor module races on
SHARED_NAMES = frozenset({"x", "r", "x_true"})


def _base_name(node: ast.AST) -> str:
    """Base identifier of an assignment target (``x`` for ``x[a:b]``)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return ""


class SharedWriteDisciplineRule(Rule):
    code = "RPR001"
    name = "shared-write-discipline"
    description = (
        "shared iterate/residual arrays in the async executors must be "
        "mutated through a WritePolicy, never directly"
    )
    hint = (
        "use WritePolicy.add / WritePolicy.assign_slice, or add "
        "'# repro: noqa[RPR001] <reason>' at a proven serialization point"
    )
    scope = EXECUTOR_MODULES

    def check(self, tree: ast.AST, source: str, relpath: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            targets: List[ast.AST] = []
            if isinstance(node, ast.AugAssign):
                # x += e  /  x[a:b] += e  both mutate the shared buffer.
                targets = [node.target]
            elif isinstance(node, ast.Assign):
                # x[a:b] = v mutates; a bare `x = v` only rebinds the
                # local name and is handled by ordinary code review.
                targets = [t for t in node.targets if isinstance(t, ast.Subscript)]
            for target in targets:
                name = _base_name(target)
                if name in SHARED_NAMES:
                    findings.append(
                        self.finding(
                            relpath,
                            node,
                            f"direct mutation of shared vector {name!r} "
                            "outside a WritePolicy",
                        )
                    )
        return findings
