"""Fig 13: congestion control protocols (§3.10)."""

from repro.core.taxonomy import Category
from repro.figures import fig13


def test_fig13a_protocol_parity():
    results = fig13._results()
    table = fig13.fig13a(results)
    values = table.column("thpt_per_core_gbps")
    assert max(values) / min(values) < 1.25


def test_fig13b_bbr_scheduling_signature():
    results = fig13._results()
    table = fig13.fig13b(results)
    sched_col = table.columns.index(Category.SCHED.label)
    rows = {row[0]: float(row[sched_col]) for row in table.rows}
    assert rows["bbr"] > rows["cubic"]


def test_fig13c_receiver_side_identical():
    results = fig13._results()
    table = fig13.fig13c(results)
    copy_col = table.columns.index(Category.DATA_COPY.label)
    values = [float(row[copy_col]) for row in table.rows]
    assert max(values) - min(values) < 0.12
