"""Fig 5: one-to-one traffic pattern, 1..24 flows (§3.2).

The network saturates around 8 flows; throughput-per-core keeps dropping as
flows are added because every optimization loses effectiveness (aRFS cache
locality, GRO batching) and scheduling overheads rise while memory-management
overheads fall (pageset recycling).
"""

from __future__ import annotations

from typing import List, Tuple

from ..config import ExperimentConfig, OptimizationConfig, TrafficPattern
from ..core.report import Table, render_breakdown_table
from ..core.results import ExperimentResult
from .base import run_all

FLOW_COUNTS = (1, 8, 16, 24)


def _config(flows: int, opts: OptimizationConfig) -> ExperimentConfig:
    return ExperimentConfig(
        pattern=TrafficPattern.ONE_TO_ONE, num_flows=flows, opts=opts
    )


def _all_opt_results() -> List[Tuple[int, ExperimentResult]]:
    results = run_all([_config(n, OptimizationConfig.all()) for n in FLOW_COUNTS])
    return list(zip(FLOW_COUNTS, results))


def fig5a() -> Table:
    """Throughput-per-core per optimization column and flow count."""
    table = Table(
        "Fig 5a: one-to-one throughput-per-core (Gbps)",
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


def fig5b() -> Table:
    """Sender CPU breakdown vs number of flows (all optimizations on)."""
    return render_breakdown_table(
        "Fig 5b: one-to-one sender CPU breakdown",
        [(f"{n} flows", r.sender_breakdown) for n, r in _all_opt_results()],
    )


def fig5c() -> Table:
    """Receiver CPU breakdown vs number of flows (all optimizations on)."""
    return render_breakdown_table(
        "Fig 5c: one-to-one receiver CPU breakdown",
        [(f"{n} flows", r.receiver_breakdown) for n, r in _all_opt_results()],
    )
