"""Fig 6: incast traffic pattern, 1..24 flows into one receiver core (§3.3).

Multiple flows share the receiver core's L3 slice, so per-byte copy costs
grow with the number of flows (cache miss rate climbs); the CPU breakdown
itself barely changes.
"""

from __future__ import annotations

from typing import List, Tuple

from ..config import ExperimentConfig, OptimizationConfig, TrafficPattern
from ..core.report import Table, render_breakdown_table
from ..core.results import ExperimentResult
from .base import pct, run_all

FLOW_COUNTS = (1, 8, 16, 24)


def _config(flows: int, opts: OptimizationConfig = None) -> ExperimentConfig:
    return ExperimentConfig(
        pattern=TrafficPattern.INCAST,
        num_flows=flows,
        opts=opts or OptimizationConfig.all(),
    )


def _all_opt_results() -> List[Tuple[int, ExperimentResult]]:
    results = run_all([_config(n) for n in FLOW_COUNTS])
    return list(zip(FLOW_COUNTS, results))


def fig6a() -> Table:
    """Throughput-per-core per optimization column and flow count."""
    table = Table(
        "Fig 6a: incast throughput-per-core (Gbps)",
        ["flows", "config", "thpt_per_core_gbps", "total_thpt_gbps"],
    )
    cells = [
        (n, label, _config(n, opts))
        for n in FLOW_COUNTS
        for label, opts in OptimizationConfig.incremental_ladder()
    ]
    results = run_all([config for _, _, config in cells])
    for (n, label, _), result in zip(cells, results):
        table.add_row(
            n, label, result.throughput_per_core_gbps, result.total_throughput_gbps
        )
    return table


def fig6b() -> Table:
    """Receiver CPU breakdown vs flows (all optimizations on)."""
    return render_breakdown_table(
        "Fig 6b: incast receiver CPU breakdown",
        [(f"{n} flows", r.receiver_breakdown) for n, r in _all_opt_results()],
    )


def fig6c() -> Table:
    """Receiver L3 miss rate and throughput-per-core vs flows."""
    table = Table(
        "Fig 6c: incast receiver cache miss rate vs flows",
        ["flows", "thpt_per_core_gbps", "receiver_miss_rate"],
    )
    for n, result in _all_opt_results():
        table.add_row(
            n, result.throughput_per_core_gbps, pct(result.receiver_cache_miss_rate)
        )
    return table
