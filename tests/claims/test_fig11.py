"""Fig 11: mixed long and short flows on one core (§3.7)."""

from .conftest import pick


def test_fig11a_mixing_degrades_throughput(panels):
    table = pick(panels["fig11a"], "short_flows", (0, 16))
    per_core = table.column("thpt_per_core_gbps")
    assert per_core[1] < 0.75 * per_core[0]  # paper: ~43% drop


def test_fig11b_breakdown(panels):
    table = pick(panels["fig11b"], "config", ("0 short flows", "16 short flows"))
    copy_col = table.columns.index("data copy")
    assert float(table.rows[1][copy_col]) > 0.25  # copy still dominant


def test_fig11_isolation_comparison(panels):
    table = panels["fig11_isolation"]
    isolated, mixed = table.rows
    assert mixed[1] < isolated[1]  # long flow loses when mixed
    assert mixed[2] < isolated[2]  # short flows lose too
