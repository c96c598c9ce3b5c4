"""Fig 5: one-to-one scaling (§3.2)."""

from repro.core.taxonomy import Category

from .conftest import pick


def test_fig5a_throughput_per_core(panels):
    table = pick(panels["fig5a"], "flows", (1, 8, 24))
    all_opt = [
        row for row in table.rows if row[1] == "+aRFS"
    ]
    per_core = [row[2] for row in all_opt]
    assert per_core[-1] < per_core[0]  # per-core efficiency drops with flows
    totals = [row[3] for row in all_opt]
    assert totals[1] > 90  # the link saturates by 8 flows


def test_fig5b_sender_breakdown(panels):
    table = pick(panels["fig5b"], "config", ("1 flows", "24 flows"))
    assert len(table.rows) == 2


def test_fig5c_receiver_breakdown_shifts(panels):
    table = pick(panels["fig5c"], "config", ("1 flows", "24 flows"))
    sched_col = table.columns.index(Category.SCHED.label)
    mem_col = table.columns.index(Category.MEMORY.label)
    one, twentyfour = table.rows
    assert float(twentyfour[sched_col]) > float(one[sched_col])  # sched grows
    assert float(twentyfour[mem_col]) < float(one[mem_col])      # memory falls
