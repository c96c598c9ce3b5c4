"""Unit tests for table rendering."""

import pytest

from repro.core.report import Table, render_breakdown_table
from repro.core.results import BreakdownTable
from repro.core.taxonomy import Category


def test_add_row_and_render():
    table = Table("My Title", ["a", "b"])
    table.add_row("x", 1.5)
    text = table.render()
    assert "My Title" in text
    assert "1.50" in text


def test_small_nonzero_floats_keep_two_significant_digits():
    """Fig 9's loss rates stay apart instead of reading 0.00, 0.00 and 0.01;
    zero and ordinary floats keep two decimals."""
    table = Table("t", ["loss_rate", "gbps"])
    for loss, gbps in ((0.0, 47.32), (1.5e-4, 47.32), (1.5e-3, 60.71), (1.5e-2, 51.9)):
        table.add_row(loss, gbps)
    rows = [line.split() for line in table.render().splitlines()[4:]]
    assert rows == [
        ["0.00", "47.32"],
        ["1.5e-04", "47.32"],
        ["1.5e-03", "60.71"],
        ["1.5e-02", "51.90"],
    ]


def test_wrong_arity_rejected():
    table = Table("t", ["a", "b"])
    with pytest.raises(ValueError):
        table.add_row("only-one")


def test_column_extraction():
    table = Table("t", ["name", "value"])
    table.add_row("x", 1)
    table.add_row("y", 2)
    assert table.column("value") == [1, 2]


def test_unknown_column_raises():
    table = Table("t", ["a"])
    with pytest.raises(ValueError):
        table.column("nope")


def test_render_alignment_consistent():
    table = Table("t", ["col"])
    table.add_row("short")
    table.add_row("a-much-longer-value")
    lines = table.render().splitlines()
    widths = {len(line) for line in lines[2:]}
    assert len(widths) == 1  # all rows padded to same width


def test_breakdown_table_has_category_columns():
    breakdown = BreakdownTable({cat: 1 / len(Category) for cat in Category})
    table = render_breakdown_table("b", [("cfg", breakdown)])
    assert "data copy" in table.columns
    assert len(table.rows) == 1
