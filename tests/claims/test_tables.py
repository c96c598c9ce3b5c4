"""Tables 1 and 2."""


def test_table1_taxonomy(panels):
    table = panels["table1"]
    assert len(table.rows) == 8  # the paper's 8 CPU-usage categories


def test_table2_steering(panels):
    table = panels["table2"]
    assert [row[0] for row in table.rows] == ["RPS", "RFS", "RSS", "ARFS"]
