"""Fig 8: all-to-all (§3.5)."""

from .conftest import pick


def test_fig8a_per_core_collapse(panels):
    table = pick(panels["fig8a"], "flows", ("1x1", "8x8", "24x24"))
    all_opt = [row for row in table.rows if row[1] == "+aRFS"]
    per_core = [row[2] for row in all_opt]
    assert per_core[2] < per_core[1] < per_core[0]
    assert per_core[2] < 0.55 * per_core[0]  # paper: ~67% reduction


def test_fig8b_breakdown(panels):
    table = pick(panels["fig8b"], "config", ("1x1 flows", "24x24 flows"))
    assert len(table.rows) == 2


def test_fig8c_skb_sizes_shrink(panels):
    table = pick(panels["fig8c"], "flows", ("1x1", "8x8", "24x24"))
    means = table.column("mean_skb_kb")
    assert means[2] < means[0]
    full_fraction = table.column("frac_64kb_skbs")
    assert full_fraction[2] < full_fraction[0]
