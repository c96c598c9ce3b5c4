"""Fig 13: congestion control protocols (§3.10)."""

from repro.core.taxonomy import Category


def test_fig13a_protocol_parity(panels):
    table = panels["fig13a"]
    values = table.column("thpt_per_core_gbps")
    assert max(values) / min(values) < 1.25


def test_fig13b_bbr_scheduling_signature(panels):
    table = panels["fig13b"]
    sched_col = table.columns.index(Category.SCHED.label)
    rows = {row[0]: float(row[sched_col]) for row in table.rows}
    assert rows["bbr"] > rows["cubic"]


def test_fig13c_receiver_side_identical(panels):
    table = panels["fig13c"]
    copy_col = table.columns.index(Category.DATA_COPY.label)
    values = [float(row[copy_col]) for row in table.rows]
    assert max(values) - min(values) < 0.12
