"""Fig 3: Linux network stack performance for a single flow (§3.1).

Panels:
 a) throughput-per-core for each incremental optimization column,
 b) sender/receiver CPU utilization per column,
 c) sender CPU breakdown per column,
 d) receiver CPU breakdown per column,
 e) throughput & L3 miss rate vs NIC ring size x TCP Rx buffer size,
 f) NAPI-to-copy latency (avg/p99) vs TCP Rx buffer size.
"""

from __future__ import annotations

from typing import List, Tuple

from ..config import ExperimentConfig, NicConfig, OptimizationConfig, TcpConfig
from ..core.report import Table, render_breakdown_table
from ..core.results import ExperimentResult
from ..units import kb
from .base import pct, run_all

#: Fig 3e sweep axes (paper: ring 128..8192, buffers 3200KB/6400KB/Default).
RING_SIZES = (128, 256, 512, 1024, 2048, 4096, 8192)
RX_BUFFERS_KB = (3200, 6400)
#: Fig 3f sweep (paper: 100..12800 KB).
LATENCY_BUFFERS_KB = (100, 200, 400, 800, 1600, 3200, 6400, 12800)


def ladder_configs() -> List[Tuple[str, ExperimentConfig]]:
    """The Fig-3a incremental-optimization ladder as (label, config) pairs."""
    return [
        (label, ExperimentConfig(opts=opts))
        for label, opts in OptimizationConfig.incremental_ladder()
    ]


def _ladder_results() -> List[Tuple[str, ExperimentResult]]:
    ladder = ladder_configs()
    results = run_all([config for _, config in ladder])
    return [(label, result) for (label, _), result in zip(ladder, results)]


def fig3a(results: List[Tuple[str, ExperimentResult]] = None) -> Table:
    """Throughput-per-core per optimization column."""
    results = results or _ladder_results()
    table = Table(
        "Fig 3a: single flow throughput-per-core (Gbps) vs optimizations",
        ["config", "thpt_per_core_gbps", "total_thpt_gbps"],
    )
    for label, result in results:
        table.add_row(
            label, result.throughput_per_core_gbps, result.total_throughput_gbps
        )
    return table


def fig3b(results: List[Tuple[str, ExperimentResult]] = None) -> Table:
    """Sender and receiver CPU utilization (%) per optimization column."""
    results = results or _ladder_results()
    table = Table(
        "Fig 3b: single flow CPU utilization (%)",
        ["config", "sender_util_pct", "receiver_util_pct", "total_thpt_gbps"],
    )
    for label, result in results:
        table.add_row(
            label,
            100 * result.sender_utilization_cores,
            100 * result.receiver_utilization_cores,
            result.total_throughput_gbps,
        )
    return table


def fig3c(results: List[Tuple[str, ExperimentResult]] = None) -> Table:
    """Sender-side CPU breakdown per optimization column."""
    results = results or _ladder_results()
    return render_breakdown_table(
        "Fig 3c: sender CPU breakdown",
        [(label, result.sender_breakdown) for label, result in results],
    )


def fig3d(results: List[Tuple[str, ExperimentResult]] = None) -> Table:
    """Receiver-side CPU breakdown per optimization column."""
    results = results or _ladder_results()
    return render_breakdown_table(
        "Fig 3d: receiver CPU breakdown",
        [(label, result.receiver_breakdown) for label, result in results],
    )


def fig3e(
    ring_sizes: Tuple[int, ...] = RING_SIZES,
    buffers_kb: Tuple[int, ...] = RX_BUFFERS_KB,
) -> Table:
    """Throughput & cache miss rate vs ring size x Rx buffer (static buffers
    plus the autotuned "Default" series)."""
    table = Table(
        "Fig 3e: throughput (Gbps) and L3 miss rate vs NIC ring size and Rx buffer",
        ["ring_size", "rx_buffer", "thpt_gbps", "miss_rate"],
    )
    cells: List[Tuple[int, str, ExperimentConfig]] = []
    for ring in ring_sizes:
        for buffer_kb in buffers_kb:
            cells.append((
                ring,
                f"{buffer_kb}KB",
                ExperimentConfig(
                    nic=NicConfig(rx_descriptors=ring),
                    tcp=TcpConfig(rx_buffer_bytes=kb(buffer_kb)),
                ),
            ))
        cells.append((ring, "Default", ExperimentConfig(nic=NicConfig(rx_descriptors=ring))))
    results = run_all([config for _, _, config in cells])
    for (ring, label, _), result in zip(cells, results):
        table.add_row(
            ring,
            label,
            result.total_throughput_gbps,
            pct(result.receiver_cache_miss_rate),
        )
    return table


def fig3f(buffers_kb: Tuple[int, ...] = LATENCY_BUFFERS_KB) -> Table:
    """NAPI-to-start-of-copy latency vs TCP Rx buffer size."""
    table = Table(
        "Fig 3f: stack latency from NAPI to data copy vs TCP Rx buffer size",
        ["rx_buffer_kb", "avg_latency_us", "p99_latency_us", "thpt_gbps"],
    )
    results = run_all([
        ExperimentConfig(tcp=TcpConfig(rx_buffer_bytes=kb(buffer_kb)))
        for buffer_kb in buffers_kb
    ])
    for buffer_kb, result in zip(buffers_kb, results):
        table.add_row(
            buffer_kb,
            result.copy_latency.avg_ns / 1000,
            result.copy_latency.percentile(0.99) / 1000,
            result.total_throughput_gbps,
        )
    return table
