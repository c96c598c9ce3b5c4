"""Fig 6: incast (§3.3)."""

from repro.figures import fig6


def test_fig6a_throughput_per_core():
    table = fig6.fig6a(flows=(1, 8))
    all_opt = [row for row in table.rows if row[1] == "+aRFS"]
    assert all_opt[1][2] < all_opt[0][2]  # per-core drops with incast degree


def test_fig6b_breakdown_stable():
    results = fig6._all_opt_results((1, 8))
    table = fig6.fig6b(results)
    copy_col = table.columns.index("data copy")
    values = [float(row[copy_col]) for row in table.rows]
    assert abs(values[0] - values[1]) < 0.15


def test_fig6c_miss_rate_grows():
    results = fig6._all_opt_results((1, 8))
    table = fig6.fig6c(results)
    misses = [float(row[2].rstrip("%")) for row in table.rows]
    assert misses[1] > misses[0]
