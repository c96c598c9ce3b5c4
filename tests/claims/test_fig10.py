"""Fig 10: short-flow RPCs (§3.7)."""

from repro.core.taxonomy import Category

from .conftest import pick


def test_fig10a_throughput_vs_rpc_size(panels):
    table = pick(panels["fig10a"], "rpc_size_kb", (4, 64))
    all_opt = [row for row in table.rows if row[1] == "+aRFS"]
    assert all_opt[1][2] > 2 * all_opt[0][2]


def test_fig10b_copy_not_dominant_for_4kb(panels):
    table = pick(panels["fig10b"], "config", ("4KB", "64KB"))
    copy_col = table.columns.index(Category.DATA_COPY.label)
    small, large = table.rows
    assert float(small[copy_col]) < float(large[copy_col])


def test_fig10c_numa_placement_marginal(panels):
    table = panels["fig10c"]
    local, remote = table.rows
    assert remote[1] > 0.85 * local[1]  # unlike long flows (Fig 4)
