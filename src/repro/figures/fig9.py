"""Fig 9: impact of in-network congestion — random drops at a switch (§3.6).

A switch between the hosts drops frames uniformly at random. Losses trigger
duplicate-ACK/SACK processing and retransmissions, growing the TCP and
netdevice shares of CPU at both ends while total throughput falls.
"""

from __future__ import annotations

from typing import List, Tuple

from ..config import ExperimentConfig, LinkConfig
from ..core.report import Table, render_breakdown_table
from ..core.results import ExperimentResult
from .base import run_all

LOSS_RATES = (0.0, 1.5e-4, 1.5e-3, 1.5e-2)


def _config(loss: float) -> ExperimentConfig:
    return ExperimentConfig(link=LinkConfig(loss_rate=loss, has_switch=True))


def _results() -> List[Tuple[float, ExperimentResult]]:
    results = run_all([_config(p) for p in LOSS_RATES])
    return list(zip(LOSS_RATES, results))


def fig9a() -> Table:
    table = Table(
        "Fig 9a: throughput-per-core (Gbps) vs packet drop rate",
        ["loss_rate", "thpt_per_core_gbps", "total_thpt_gbps", "retransmits"],
    )
    for p, result in _results():
        table.add_row(
            p,
            result.throughput_per_core_gbps,
            result.total_throughput_gbps,
            result.retransmits,
        )
    return table


def fig9b() -> Table:
    table = Table(
        "Fig 9b: CPU utilization (%) vs packet drop rate",
        ["loss_rate", "sender_util_pct", "receiver_util_pct"],
    )
    for p, result in _results():
        table.add_row(
            p,
            100 * result.sender_utilization_cores,
            100 * result.receiver_utilization_cores,
        )
    return table


def fig9c() -> Table:
    return render_breakdown_table(
        "Fig 9c: sender CPU breakdown vs drop rate",
        [(f"loss={p}", r.sender_breakdown) for p, r in _results()],
    )


def fig9d() -> Table:
    return render_breakdown_table(
        "Fig 9d: receiver CPU breakdown vs drop rate",
        [(f"loss={p}", r.receiver_breakdown) for p, r in _results()],
    )
