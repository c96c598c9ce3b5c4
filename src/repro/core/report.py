"""Plain-text rendering of experiment results as paper-style tables.

Every figure generator returns a :class:`Series` or :class:`Table`; these
helpers print them in aligned columns so benchmark output can be eyeballed
against the paper's plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from .results import BreakdownTable
from .taxonomy import Category


@dataclass
class Table:
    """A titled table of rows."""

    title: str
    columns: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> List[object]:
        """All values of one column."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def render(self) -> str:
        """Aligned plain-text rendering."""
        cells = [self.columns] + [
            [_format_cell(value) for value in row] for row in self.rows
        ]
        widths = [
            max(len(row[i]) for row in cells) for i in range(len(self.columns))
        ]
        lines = [self.title, "-" * len(self.title)]
        header = "  ".join(name.ljust(widths[i]) for i, name in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in cells[1:]:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


#: Below this magnitude ``.2f`` keeps at most one significant digit of a
#: float: Fig 9's loss rates 1.5e-4 and 1.5e-3 would both read ``0.00`` and
#: 1.5e-2 would read ``0.01``.
_FIXED_POINT_FLOOR = 0.05


def _format_cell(value: object) -> str:
    """Floats at two decimals, except a nonzero one that two decimals would
    collapse, which keeps two significant digits (``1.5e-04``)."""
    if isinstance(value, float):
        if value != 0 and abs(value) < _FIXED_POINT_FLOOR:
            return f"{value:.1e}"
        return f"{value:.2f}"
    return str(value)


def breakdown_columns() -> List[str]:
    """Column labels for a per-category breakdown row."""
    return [category.label for category in Category]


def breakdown_cells(breakdown: BreakdownTable) -> List[str]:
    """Fractions of one breakdown formatted as table cells."""
    return [f"{breakdown.fraction(category):.3f}" for category in Category]


def render_breakdown_table(
    title: str,
    labeled: Sequence[tuple],
) -> Table:
    """Build a Table from ``(label, BreakdownTable)`` pairs (Fig 3c/3d style)."""
    table = Table(title, ["config"] + breakdown_columns())
    for label, breakdown in labeled:
        table.add_row(label, *breakdown_cells(breakdown))
    return table
