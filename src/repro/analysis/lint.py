"""Lint orchestrator: run every checker, apply suppressions, report.

Pipeline: load the ``src/repro`` tree into a :class:`Project`, run each
registered checker, drop findings covered by an inline
``# repro-lint: allow[rule] reason`` pragma (the only suppression), and
render. A finding no pragma covers is *new*. Exit status is the gate
contract:

* ``0`` — no new findings,
* ``1`` — at least one new finding,
* ``2`` — a linted file failed to parse (the tree itself is broken).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional

from .checkers import CHECKERS
from .findings import Finding
from .project import Project


@dataclass
class LintReport:
    """Everything one lint run produced, pre-rendering."""

    findings: List[Finding] = field(default_factory=list)      # post-pragma
    pragma_suppressed: List[Finding] = field(default_factory=list)
    syntax_errors: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        if self.syntax_errors:
            return 2
        if self.findings:
            return 1
        return 0


def run_lint(project: Optional[Project] = None) -> LintReport:
    """Run all checkers over ``project`` (default: the installed tree)."""
    if project is None:
        project = Project.from_dir()

    report = LintReport()
    for file in project:
        if file.syntax_error is not None:
            report.syntax_errors.append(f"{file.path}: {file.syntax_error}")

    collected: List[Finding] = []
    for check in CHECKERS.values():
        collected.extend(check(project))

    for finding in sorted(collected):
        source = project.file_by_path(finding.path)
        if source is not None and finding.rule in source.allowed_rules(
            finding.line
        ):
            report.pragma_suppressed.append(finding)
        else:
            report.findings.append(finding)
    return report


def render_text(report: LintReport, verbose: bool = False) -> str:
    lines: List[str] = []
    for error in report.syntax_errors:
        lines.append(f"syntax error: {error}")
    for finding in report.findings:
        lines.append(finding.render())
        if verbose:
            lines.append(f"    rationale: {finding.rationale}")
    lines.append(
        f"repro lint: {len(report.findings)} new, "
        f"{len(report.pragma_suppressed)} pragma-suppressed"
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    return json.dumps(
        {
            "exit_code": report.exit_code,
            "new": [f.to_dict() for f in report.findings],
            "pragma_suppressed": [
                f.to_dict() for f in report.pragma_suppressed
            ],
            "syntax_errors": report.syntax_errors,
        },
        indent=2,
    )


__all__ = [
    "LintReport",
    "render_json",
    "render_text",
    "run_lint",
]
