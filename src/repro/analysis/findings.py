"""Finding model shared by every ``repro lint`` checker.

A :class:`Finding` is one violation of a statically-checkable invariant:
where it is (repo-relative path, line, enclosing symbol), which rule fired,
and why the rule exists. Findings are value objects — checkers produce them,
the lint driver suppresses (by pragma) and renders them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One statically-detected invariant violation."""

    path: str      # repo-relative posix path, e.g. "src/repro/sim/engine.py"
    line: int      # 1-based; 0 for whole-file findings
    rule: str      # stable rule id, e.g. "det-wallclock"
    symbol: str    # enclosing qualname ("Engine.run") or "<module>"
    message: str   # stable one-line statement of the violation (no line numbers)
    #: Why the rule exists — shown once per rule in reports, not per finding.
    rationale: str = field(default="", compare=False)
    checker: str = field(default="", compare=False)  # owning checker id

    def render(self) -> str:
        symbol = f" ({self.symbol})" if self.symbol != "<module>" else ""
        return f"{self.path}:{self.line}: [{self.rule}]{symbol} {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
            "checker": self.checker,
        }
