"""Fig 9: in-network loss (§3.6)."""

from repro.core.taxonomy import Category

from .conftest import pick


def test_fig9a_throughput_vs_loss(panels):
    table = pick(panels["fig9a"], "loss_rate", (0.0, 1.5e-3, 1.5e-2))
    totals = table.column("total_thpt_gbps")
    assert totals[0] > totals[1] > totals[2]
    assert table.column("retransmits")[2] > 0


def test_fig9b_utilization_vs_loss(panels):
    table = pick(panels["fig9b"], "loss_rate", (0.0, 1.5e-2))
    receivers = table.column("receiver_util_pct")
    assert receivers[1] < receivers[0]


def test_fig9cd_breakdowns_shift_to_protocol(panels):
    table_d = pick(panels["fig9d"], "config", ("loss=0.0", "loss=0.015"))
    tcp_col = table_d.columns.index(Category.TCPIP.label)
    clean, lossy = table_d.rows
    assert float(lossy[tcp_col]) > float(clean[tcp_col])
