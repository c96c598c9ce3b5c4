"""Fig 12: impact of DCA (DDIO) and the IOMMU on single-flow performance
(§3.8, §3.9).

Disabling DCA forces every receiver copy to miss L3; enabling the IOMMU adds
two per-page operations (map on allocation, unmap after DMA) that blow up the
memory-management share of CPU at both ends.
"""

from __future__ import annotations

from typing import List, Tuple

from ..config import ExperimentConfig, HostConfig, OptimizationConfig
from ..core.report import Table, render_breakdown_table
from ..core.results import ExperimentResult
from .base import pct, run_all

CONFIGS: List[Tuple[str, HostConfig]] = [
    ("Default", HostConfig()),
    ("DCA Disabled", HostConfig(dca_enabled=False)),
    ("IOMMU Enabled", HostConfig(iommu_enabled=True)),
]


def _results() -> List[Tuple[str, ExperimentResult]]:
    results = run_all([ExperimentConfig(host=host) for _, host in CONFIGS])
    return [(label, result) for (label, _), result in zip(CONFIGS, results)]


def fig12a() -> Table:
    """Throughput-per-core per optimization ladder for each host config."""
    table = Table(
        "Fig 12a: throughput-per-core (Gbps): default vs DCA off vs IOMMU on",
        ["host_config", "opt_config", "thpt_per_core_gbps", "receiver_miss_rate"],
    )
    cells = [
        (host_label, opt_label, ExperimentConfig(host=host, opts=opts))
        for host_label, host in CONFIGS
        for opt_label, opts in OptimizationConfig.incremental_ladder()
    ]
    results = run_all([config for _, _, config in cells])
    for (host_label, opt_label, _), result in zip(cells, results):
        table.add_row(
            host_label,
            opt_label,
            result.throughput_per_core_gbps,
            pct(result.receiver_cache_miss_rate),
        )
    return table


def fig12b() -> Table:
    return render_breakdown_table(
        "Fig 12b: sender CPU breakdown",
        [(label, r.sender_breakdown) for label, r in _results()],
    )


def fig12c() -> Table:
    return render_breakdown_table(
        "Fig 12c: receiver CPU breakdown",
        [(label, r.receiver_breakdown) for label, r in _results()],
    )
