"""Fig 10: short-flow RPC workloads, 16:1 incast, 4KB..64KB messages (§3.7).

Sixteen ping-pong clients drive one server application thread; the server
core is the bottleneck, so the metric divides by *server-side* utilization.
For tiny RPCs data copy stops being the dominant CPU consumer and DCA/NUMA
placement stops mattering (panel c).
"""

from __future__ import annotations

from typing import List, Tuple

from ..config import (
    ExperimentConfig,
    NumaPolicy,
    OptimizationConfig,
    TrafficPattern,
    WorkloadConfig,
)
from ..core.report import Table, render_breakdown_table
from ..core.results import ExperimentResult
from ..units import kb
from .base import pct, run_all

RPC_SIZES_KB = (4, 16, 32, 64)
NUM_CLIENTS = 16


def _config(
    size_kb: int,
    opts: OptimizationConfig = None,
    numa: NumaPolicy = NumaPolicy.NIC_LOCAL_FIRST,
) -> ExperimentConfig:
    return ExperimentConfig(
        pattern=TrafficPattern.RPC_INCAST,
        num_flows=NUM_CLIENTS,
        opts=opts or OptimizationConfig.all(),
        workload=WorkloadConfig(rpc_size_bytes=kb(size_kb)),
        numa_policy=numa,
    )


def _all_opt_results() -> List[Tuple[int, ExperimentResult]]:
    results = run_all([_config(s) for s in RPC_SIZES_KB])
    return list(zip(RPC_SIZES_KB, results))


def fig10a() -> Table:
    """Throughput-per-server-core per optimization column and RPC size."""
    table = Table(
        "Fig 10a: 16:1 RPC throughput-per-server-core (Gbps) vs RPC size",
        ["rpc_size_kb", "config", "thpt_per_server_core_gbps", "total_thpt_gbps"],
    )
    cells = [
        (size, label, _config(size, opts))
        for size in RPC_SIZES_KB
        for label, opts in OptimizationConfig.incremental_ladder()
    ]
    results = run_all([config for _, _, config in cells])
    for (size, label, _), result in zip(cells, results):
        table.add_row(
            size,
            label,
            result.throughput_per_receiver_core_gbps,
            result.total_throughput_gbps,
        )
    return table


def fig10b() -> Table:
    """Server-side CPU breakdown vs RPC size (all optimizations on)."""
    return render_breakdown_table(
        "Fig 10b: RPC server CPU breakdown vs RPC size",
        [(f"{size}KB", r.receiver_breakdown) for size, r in _all_opt_results()],
    )


def fig10c() -> Table:
    """NIC-local vs NIC-remote server placement for small RPCs."""
    table = Table(
        "Fig 10c: 4KB RPCs, server on NIC-local vs NIC-remote NUMA node",
        ["placement", "thpt_per_server_core_gbps", "server_miss_rate"],
    )
    placements = (
        ("NIC-local NUMA", NumaPolicy.NIC_LOCAL_FIRST),
        ("NIC-remote NUMA", NumaPolicy.NIC_REMOTE),
    )
    results = run_all([_config(4, numa=numa) for _, numa in placements])
    for (label, _), result in zip(placements, results):
        table.add_row(
            label,
            result.throughput_per_receiver_core_gbps,
            pct(result.receiver_cache_miss_rate),
        )
    return table
