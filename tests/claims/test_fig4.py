"""Fig 4: NIC-remote NUMA placement (§3.1)."""


def test_fig4_numa_placement(panels):
    table = panels["fig4"]
    local, remote = table.rows
    assert remote[1] < local[1]  # throughput-per-core drops off-node
    assert float(remote[2].rstrip("%")) > float(local[2].rstrip("%"))
