"""Fig 7: outcast (§3.4)."""

from .conftest import pick


def test_fig7a_sender_core_efficiency(panels):
    table = pick(panels["fig7a"], "flows", (1, 8))
    all_opt = [row for row in table.rows if row[1] == "+aRFS"]
    # a single sender core sustains close to the paper's ~89Gbps at 8 flows
    assert all_opt[1][2] > 70
    # total throughput scales with the number of receiver cores
    assert all_opt[1][3] > all_opt[0][3]


def test_fig7b_copy_still_dominant(panels):
    table = pick(panels["fig7b"], "config", ("8 flows",))
    copy = float(table.rows[0][table.columns.index("data copy")])
    assert copy > 0.30


def test_fig7c_sender_cache_warm(panels):
    table = pick(panels["fig7c"], "flows", (8,))
    miss = float(table.rows[0][3].rstrip("%"))
    assert miss < 35
