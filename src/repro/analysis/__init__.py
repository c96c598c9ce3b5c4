"""Static analysis (``repro lint``): AST checkers proving repo invariants.

The three checkers and the framework they share are documented in
DESIGN.md §12. Entry point: :func:`repro.analysis.lint.run_lint` (wired to
the ``repro lint`` CLI subcommand).
"""

from .findings import Finding
from .lint import LintReport, run_lint
from .project import Project

__all__ = ["Finding", "LintReport", "Project", "run_lint"]
