"""Fig 12: DCA and IOMMU (§3.8-§3.9)."""

from repro.core.taxonomy import Category


def test_fig12a_host_configs(panels):
    table = panels["fig12a"]
    all_opt = {row[0]: row[2] for row in table.rows if row[1] == "+aRFS"}
    assert all_opt["DCA Disabled"] < all_opt["Default"]
    assert all_opt["IOMMU Enabled"] < all_opt["Default"]


def test_fig12bc_iommu_memory_blowup(panels):
    table_c = panels["fig12c"]
    mem_col = table_c.columns.index(Category.MEMORY.label)
    rows = {row[0]: float(row[mem_col]) for row in table_c.rows}
    assert rows["IOMMU Enabled"] > rows["Default"] + 0.10
