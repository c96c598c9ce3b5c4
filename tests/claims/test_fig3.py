"""Fig 3: the single-flow study (§3.1)."""

from .conftest import pick


def test_fig3a_optimization_ladder(panels):
    table = panels["fig3a"]
    values = table.column("thpt_per_core_gbps")
    assert values == sorted(values)  # incremental optimizations monotone
    assert values[-1] > 4 * values[0]


def test_fig3b_cpu_utilization(panels):
    table = panels["fig3b"]
    # receiver-side CPU is the bottleneck in every column
    senders = table.column("sender_util_pct")
    receivers = table.column("receiver_util_pct")
    assert all(r > s for s, r in zip(senders, receivers))


def test_fig3c_sender_breakdown(panels):
    table = panels["fig3c"]
    assert len(table.rows) == 4


def test_fig3d_receiver_breakdown(panels):
    table = panels["fig3d"]
    # all-opt row: data copy dominates
    final = table.rows[-1]
    copy_fraction = float(final[table.columns.index("data copy")])
    assert copy_fraction > 0.40


def test_fig3e_ring_and_buffer_sweep(panels):
    table = pick(panels["fig3e"], "ring_size", (128, 1024, 8192))
    # larger rings dilute DCA: miss grows for the static 3200KB series
    rows_3200 = [row for row in table.rows if row[1] == "3200KB"]
    misses = [float(row[3].rstrip("%")) for row in rows_3200]
    assert misses[0] < misses[-1]


def test_fig3f_latency_vs_buffer(panels):
    table = pick(panels["fig3f"], "rx_buffer_kb", (100, 800, 3200, 12800))
    latencies = table.column("avg_latency_us")
    assert latencies == sorted(latencies)  # latency rises with buffer size
    assert latencies[-1] > 10 * latencies[0]
