"""Concurrency-correctness analysis for the asynchronous executors.

Three complementary layers:

- **Per-file static** (:mod:`repro.analysis.linter` +
  :mod:`repro.analysis.rules`) — an AST project linter with
  repo-specific rules (RPR001–RPR008) enforcing the concurrency
  discipline the paper's convergence results depend on: all
  shared-array access through :class:`~repro.core.writes.WritePolicy`,
  ascending striped-lock order, seeded ``Generator`` randomness,
  monotonic clocks, and the ``*Result`` dataclass contract.  Run it
  with ``python -m repro.analysis --strict`` (the CI gate) or
  ``python -m repro analyze``.

- **Whole-program static** (:mod:`repro.analysis.static`) — a
  CFG/dataflow engine, project call graph, escape analysis and
  interprocedural lockset analysis backing RPR009 (statically detected
  shared-array race) and RPR010 (cross-function lock-order violation),
  with a findings baseline ratchet (``--baseline``) and SARIF export
  (``--sarif``).  Every pass shares the parse-once
  :class:`~repro.analysis.project.ProjectIndex`.

- **Dynamic** (:mod:`repro.analysis.racecheck`) — a happens-before
  checker: :class:`CheckedWrite` observes a write policy's stripe
  sweep with per-stripe sequence counters and vector clocks, and a
  conformance run on a real threaded solve empirically verifies the
  paper's model assumptions (no torn reads under lock/atomic, read
  staleness ≤ δ, monotone read instants, per-grid update counts
  consistent with ``p_k ~ U[α, 1]``), producing a
  :class:`ModelConformanceReport`.
"""

from .linter import LintReport, default_root, lint_index, lint_source, run_linter
from .project import ParsedModule, ProjectIndex
from .racecheck import (
    CheckedWrite,
    ModelConformanceReport,
    run_conformance,
)
from .rules import ALL_RULES, Finding, Rule, rule_by_code

__all__ = [
    "ALL_RULES",
    "CheckedWrite",
    "Finding",
    "LintReport",
    "ModelConformanceReport",
    "ParsedModule",
    "ProjectIndex",
    "Rule",
    "default_root",
    "lint_index",
    "lint_source",
    "rule_by_code",
    "run_conformance",
    "run_linter",
]
