"""Fig 6: incast (§3.3)."""

from .conftest import pick


def test_fig6a_throughput_per_core(panels):
    table = pick(panels["fig6a"], "flows", (1, 8))
    all_opt = [row for row in table.rows if row[1] == "+aRFS"]
    assert all_opt[1][2] < all_opt[0][2]  # per-core drops with incast degree


def test_fig6b_breakdown_stable(panels):
    table = pick(panels["fig6b"], "config", ("1 flows", "8 flows"))
    copy_col = table.columns.index("data copy")
    values = [float(row[copy_col]) for row in table.rows]
    assert abs(values[0] - values[1]) < 0.15


def test_fig6c_miss_rate_grows(panels):
    table = pick(panels["fig6c"], "flows", (1, 8))
    misses = [float(row[2].rstrip("%")) for row in table.rows]
    assert misses[1] > misses[0]
