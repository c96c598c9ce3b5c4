"""Fig 4: single flow with the application on a NIC-remote NUMA node (§3.1).

DCA cannot push DMA'd frames into a remote node's L3, so every copy byte
misses; throughput-per-core drops ~20% relative to the NIC-local placement.
"""

from __future__ import annotations

from ..config import ExperimentConfig, NumaPolicy
from ..core.report import Table
from .base import pct, run_all


def fig4() -> Table:
    local, remote = run_all([
        ExperimentConfig(),
        ExperimentConfig(numa_policy=NumaPolicy.NIC_REMOTE),
    ])
    table = Table(
        "Fig 4: single flow on NIC-local vs NIC-remote NUMA node",
        ["placement", "thpt_per_core_gbps", "receiver_miss_rate"],
    )
    for label, result in (("NIC-local NUMA", local), ("NIC-remote NUMA", remote)):
        table.add_row(
            label, result.throughput_per_core_gbps, pct(result.receiver_cache_miss_rate)
        )
    return table
