"""Fig 7: outcast traffic pattern — one sender core, 1..24 receivers (§3.4).

The metric is throughput-per-*sender*-core: the sender-side pipeline is much
more CPU-efficient than the receiver's (TSO is free, the cache is warm),
peaking near ~89Gbps from a single core around 8 flows.
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
        pattern=TrafficPattern.OUTCAST,
        num_flows=flows,
        opts=opts or OptimizationConfig.all(),
    )


def _all_opt_results() -> List[Tuple[int, ExperimentResult]]:
    results = run_all([_config(n) for n in FLOW_COUNTS])
    return list(zip(FLOW_COUNTS, results))


def fig7a() -> Table:
    """Throughput-per-sender-core per optimization column and flow count."""
    table = Table(
        "Fig 7a: outcast throughput-per-sender-core (Gbps)",
        ["flows", "config", "thpt_per_sender_core_gbps", "total_thpt_gbps"],
    )
    cells = [
        (n, label, _config(n, opts))
        for n in FLOW_COUNTS
        for label, opts in OptimizationConfig.incremental_ladder()
    ]
    results = run_all([config for _, _, config in cells])
    for (n, label, _), result in zip(cells, results):
        table.add_row(
            n,
            label,
            result.throughput_per_sender_core_gbps,
            result.total_throughput_gbps,
        )
    return table


def fig7b() -> Table:
    """Sender CPU breakdown vs flows (all optimizations on)."""
    return render_breakdown_table(
        "Fig 7b: outcast sender CPU breakdown",
        [(f"{n} flows", r.sender_breakdown) for n, r in _all_opt_results()],
    )


def fig7c() -> Table:
    """Sender/receiver utilization and sender-side cache miss rate vs flows."""
    table = Table(
        "Fig 7c: outcast CPU utilization (%) and sender cache miss rate",
        ["flows", "sender_util_pct", "receiver_util_pct", "sender_miss_rate"],
    )
    for n, result in _all_opt_results():
        table.add_row(
            n,
            100 * result.sender_utilization_cores,
            100 * result.receiver_utilization_cores,
            pct(result.sender_cache_miss_rate),
        )
    return table
