"""Tables 1 and 2."""

from repro.figures import tables


def test_table1_taxonomy():
    table = tables.table1()
    assert len(table.rows) == 8  # the paper's 8 CPU-usage categories


def test_table2_steering():
    table = tables.table2()
    assert [row[0] for row in table.rows] == ["RPS", "RFS", "RSS", "ARFS"]
