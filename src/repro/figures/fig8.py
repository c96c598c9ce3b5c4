"""Fig 8: all-to-all traffic pattern, x by x flows (§3.5).

With hundreds of flows, each flow's per-poll packet count collapses, GRO
loses its aggregation opportunities, post-GRO skbs shrink (panel c), and
per-byte packet processing overheads climb.
"""

from __future__ import annotations

from typing import List, Tuple

from ..config import ExperimentConfig, OptimizationConfig, TrafficPattern
from ..core.report import Table, render_breakdown_table
from ..core.results import ExperimentResult
from .base import run_all

SIDE_COUNTS = (1, 8, 16, 24)


def _config(side: int, opts: OptimizationConfig = None) -> ExperimentConfig:
    return ExperimentConfig(
        pattern=TrafficPattern.ALL_TO_ALL,
        num_flows=side,
        opts=opts or OptimizationConfig.all(),
    )


def _all_opt_results() -> List[Tuple[int, ExperimentResult]]:
    results = run_all([_config(x) for x in SIDE_COUNTS])
    return list(zip(SIDE_COUNTS, results))


def fig8a() -> Table:
    """Throughput-per-core per optimization column and matrix side."""
    table = Table(
        "Fig 8a: all-to-all throughput-per-core (Gbps)",
        ["flows", "config", "thpt_per_core_gbps", "total_thpt_gbps"],
    )
    cells = [
        (x, label, _config(x, opts))
        for x in SIDE_COUNTS
        for label, opts in OptimizationConfig.incremental_ladder()
    ]
    results = run_all([config for _, _, config in cells])
    for (x, label, _), result in zip(cells, results):
        table.add_row(
            f"{x}x{x}",
            label,
            result.throughput_per_core_gbps,
            result.total_throughput_gbps,
        )
    return table


def fig8b() -> Table:
    """Receiver CPU breakdown vs matrix side (all optimizations on)."""
    return render_breakdown_table(
        "Fig 8b: all-to-all receiver CPU breakdown",
        [(f"{x}x{x} flows", r.receiver_breakdown) for x, r in _all_opt_results()],
    )


def fig8c() -> Table:
    """Post-GRO skb size distribution (CDF summary) vs matrix side."""
    table = Table(
        "Fig 8c: post-GRO skb sizes at the receiver",
        ["flows", "mean_skb_kb", "p50_skb_kb", "frac_64kb_skbs"],
    )
    for x, result in _all_opt_results():
        cdf = result.skb_size_cdf()
        p50 = 0.0
        for size, cumulative in cdf:
            if cumulative >= 0.5:
                p50 = size / 1024
                break
        full = sum(
            count
            for size, count in result.rx_skb_sizes.items()
            if size >= 60 * 1024
        )
        total = sum(result.rx_skb_sizes.values())
        table.add_row(
            f"{x}x{x}",
            result.mean_rx_skb_bytes() / 1024,
            p50,
            full / total if total else 0.0,
        )
    return table
