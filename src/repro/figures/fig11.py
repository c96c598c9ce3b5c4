"""Fig 11: mixing one long flow with N short RPC flows on a single core (§3.7).

Both the long flow's and the short flows' throughput collapse when mixed on
the same core, relative to running each in isolation — the paper's argument
for application-aware core scheduling.
"""

from __future__ import annotations

from typing import List, Tuple

from ..config import ExperimentConfig, TrafficPattern, WorkloadConfig
from ..core.report import Table, render_breakdown_table
from ..core.results import ExperimentResult
from .base import run_all

SHORT_FLOW_COUNTS = (0, 1, 4, 16)


def _config(num_short: int, include_long: bool = True) -> ExperimentConfig:
    return ExperimentConfig(
        pattern=TrafficPattern.MIXED,
        workload=WorkloadConfig(
            num_rpc_flows=num_short, include_long_flow=include_long
        ),
    )


def _results() -> List[Tuple[int, ExperimentResult]]:
    results = run_all([_config(n) for n in SHORT_FLOW_COUNTS])
    return list(zip(SHORT_FLOW_COUNTS, results))


def fig11a() -> Table:
    table = Table(
        "Fig 11a: long flow mixed with N short flows on one core (Gbps)",
        ["short_flows", "thpt_per_core_gbps", "long_gbps", "short_gbps"],
    )
    for n, result in _results():
        tags = result.throughput_by_tag_gbps
        table.add_row(
            n,
            result.throughput_per_core_gbps,
            tags.get("long", 0.0),
            tags.get("short", 0.0),
        )
    return table


def fig11b() -> Table:
    return render_breakdown_table(
        "Fig 11b: server CPU breakdown vs colocated short flows",
        [(f"{n} short flows", r.receiver_breakdown) for n, r in _results()],
    )


def fig11_isolation() -> Table:
    """The §3.7 headline: long/short throughput in isolation vs mixed."""
    num_short = 16
    long_alone, short_alone, mixed = run_all([
        _config(0),
        _config(num_short, include_long=False),
        _config(num_short),
    ])
    table = Table(
        "Fig 11 (text): isolation vs mixing on one core (Gbps)",
        ["workload", "long_gbps", "short_gbps"],
    )
    table.add_row(
        "isolated", long_alone.throughput_by_tag_gbps.get("long", 0.0),
        short_alone.throughput_by_tag_gbps.get("short", 0.0),
    )
    table.add_row(
        f"mixed (1 long + {num_short} short)",
        mixed.throughput_by_tag_gbps.get("long", 0.0),
        mixed.throughput_by_tag_gbps.get("short", 0.0),
    )
    return table
