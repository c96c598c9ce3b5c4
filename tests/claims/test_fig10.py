"""Fig 10: short-flow RPCs (§3.7)."""

from repro.core.taxonomy import Category
from repro.figures import fig10


def test_fig10a_throughput_vs_rpc_size():
    table = fig10.fig10a(sizes=(4, 64))
    all_opt = [row for row in table.rows if row[1] == "+aRFS"]
    assert all_opt[1][2] > 2 * all_opt[0][2]


def test_fig10b_copy_not_dominant_for_4kb():
    results = fig10._all_opt_results((4, 64))
    table = fig10.fig10b(results)
    copy_col = table.columns.index(Category.DATA_COPY.label)
    small, large = table.rows
    assert float(small[copy_col]) < float(large[copy_col])


def test_fig10c_numa_placement_marginal():
    table = fig10.fig10c()
    local, remote = table.rows
    assert remote[1] > 0.85 * local[1]  # unlike long flows (Fig 4)
