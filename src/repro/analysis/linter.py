"""The project linter: run the RPR rules over a source tree.

Usage (library)::

    from repro.analysis import run_linter
    report = run_linter(strict=True)      # lints the installed repro tree
    print(report.format())
    raise SystemExit(0 if report.ok else 1)

Usage (CLI)::

    python -m repro.analysis --strict     # CI entry point
    python -m repro analyze --strict      # same, through the main CLI

The whole tree is parsed exactly once per run into a
:class:`~repro.analysis.project.ProjectIndex`; per-file rules consume
the cached :class:`ParsedModule` entries and the project-wide rules
(RPR009/RPR010 — the interprocedural lockset analysis) consume the
index itself, so adding a rule never adds a parse.

Suppression
-----------
A finding is suppressed by an inline comment anchored to the flagged
construct::

    x[lo:hi] += vals  # repro: noqa[RPR001] scheduler is the serialization point

The anchor is a *span*, not a single line: for a decorated ``def`` it
covers the decorators and the (possibly wrapped) signature, and for a
multi-line statement it covers the statement's header lines — so the
comment can sit on whichever physical line survives reformatting.
``# repro: noqa`` with no code list suppresses every rule on that
line.  In ``--strict`` mode a suppression must carry a justification
(the free text after the bracket); a bare ``noqa`` leaves the finding
active, with the missing justification called out — suppressions are
part of the concurrency-correctness argument and must say *why* the
code is safe, not just that the author wanted the warning gone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .project import NoqaEntry, ParsedModule, ProjectIndex
from .rules import ALL_RULES, Finding, Rule

__all__ = ["LintReport", "run_linter", "lint_index", "lint_source", "default_root"]


def default_root() -> Path:
    """The ``repro`` package directory this module was imported from."""
    return Path(__file__).resolve().parents[1]


@dataclass
class LintReport:
    """Outcome of one linter run."""

    findings: List[Finding] = field(default_factory=list)
    """Active findings (not suppressed, or suppressed without a
    justification in strict mode)."""
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    strict: bool = False
    parse_errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors

    def format(self) -> str:
        lines: List[str] = []
        for err in self.parse_errors:
            lines.append(f"parse error: {err}")
        for f in sorted(self.findings, key=lambda f: (f.path, f.line, f.code)):
            lines.append(f.format())
        lines.append(
            f"{len(self.findings)} finding(s) in {self.files_checked} file(s)"
            f" ({len(self.suppressed)} suppressed)"
        )
        return "\n".join(lines)


def _noqa_for(
    finding: Finding, noqa: Dict[int, NoqaEntry]
) -> Optional[NoqaEntry]:
    """The suppression entry covering ``finding``, if any.

    A ``noqa`` on any line of the finding's anchor span counts; the
    first matching line (top-down) wins when several apply.
    """
    for lineno in range(finding.span_start, finding.span_end + 1):
        entry = noqa.get(lineno)
        if entry is not None and (entry[0] is None or finding.code in entry[0]):
            return entry
    return None


def _triage(
    findings: Sequence[Finding],
    noqa_by_path: Dict[str, Dict[int, NoqaEntry]],
    strict: bool,
    active: List[Finding],
    suppressed: List[Finding],
) -> None:
    """Route findings to active/suppressed per the noqa maps."""
    for finding in findings:
        entry = _noqa_for(finding, noqa_by_path.get(finding.path, {}))
        if entry is not None:
            finding.justification = entry[1]
            if strict and not entry[1]:
                finding.message += (
                    "  (suppression rejected: noqa carries no justification)"
                )
                active.append(finding)
            else:
                finding.suppressed = True
                suppressed.append(finding)
        else:
            active.append(finding)


def lint_index(
    index: ProjectIndex,
    strict: bool = False,
    rules: Optional[Sequence[Rule]] = None,
    ignore_scope: bool = False,
) -> LintReport:
    """Lint a pre-parsed project index (the parse-once entry point)."""
    chosen = list(rules) if rules is not None else list(ALL_RULES)
    report = LintReport(strict=strict)
    report.parse_errors.extend(index.parse_errors)
    report.files_checked = len(index)
    noqa_by_path = {mod.relpath: mod.noqa for mod in index}

    per_file = [r for r in chosen if not r.project_wide]
    project = [r for r in chosen if r.project_wide]

    for mod in index:
        for rule in per_file:
            if not ignore_scope and not rule.applies_to(mod.relpath):
                continue
            _triage(
                rule.check_module(mod),
                noqa_by_path,
                strict,
                report.findings,
                report.suppressed,
            )
    for rule in project:
        _triage(
            rule.check_project(index),
            noqa_by_path,
            strict,
            report.findings,
            report.suppressed,
        )
    return report


def lint_source(
    source: str,
    relpath: str,
    strict: bool = False,
    rules: Optional[Sequence[Rule]] = None,
    ignore_scope: bool = False,
) -> Tuple[List[Finding], List[Finding]]:
    """Lint one module's source; returns (active, suppressed) findings.

    ``ignore_scope`` runs every rule regardless of its file scope —
    used by the test fixtures, which concentrate violations of all
    rules in one file.  Project-wide rules see a one-module index.
    """
    module = ParsedModule.parse(source, relpath)
    index = ProjectIndex()
    index.add(module)
    report = lint_index(index, strict=strict, rules=rules, ignore_scope=ignore_scope)
    return report.findings, report.suppressed


def run_linter(
    root: Optional[Path] = None,
    strict: bool = False,
    rules: Optional[Sequence[Rule]] = None,
    ignore_scope: bool = False,
) -> LintReport:
    """Lint every ``*.py`` file under ``root`` (default: the installed
    ``repro`` package), parsing each file exactly once."""
    base = Path(root) if root is not None else default_root()
    index = ProjectIndex.from_root(base)
    return lint_index(index, strict=strict, rules=rules, ignore_scope=ignore_scope)
