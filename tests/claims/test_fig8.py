"""Fig 8: all-to-all (§3.5)."""

from repro.figures import fig8


def test_fig8a_per_core_collapse():
    table = fig8.fig8a(sides=(1, 8, 24))
    all_opt = [row for row in table.rows if row[1] == "+aRFS"]
    per_core = [row[2] for row in all_opt]
    assert per_core[2] < per_core[1] < per_core[0]
    assert per_core[2] < 0.55 * per_core[0]  # paper: ~67% reduction


def test_fig8b_breakdown():
    results = fig8._all_opt_results((1, 24))
    table = fig8.fig8b(results)
    assert len(table.rows) == 2


def test_fig8c_skb_sizes_shrink():
    results = fig8._all_opt_results((1, 8, 24))
    table = fig8.fig8c(results)
    means = table.column("mean_skb_kb")
    assert means[2] < means[0]
    full_fraction = table.column("frac_64kb_skbs")
    assert full_fraction[2] < full_fraction[0]
