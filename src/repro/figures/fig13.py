"""Fig 13: impact of the congestion control protocol (§3.10).

CUBIC, BBR and DCTCP are all sender-driven, so the receiver — the actual
bottleneck — behaves identically and throughput-per-core barely moves. BBR's
signature is extra sender-side scheduling from fq pacing-timer wakeups.
"""

from __future__ import annotations

from typing import List, Tuple

from ..config import CongestionControl, ExperimentConfig, LinkConfig, TcpConfig
from ..core.report import Table, render_breakdown_table
from ..core.results import ExperimentResult
from .base import run_all

PROTOCOLS = (
    CongestionControl.CUBIC,
    CongestionControl.BBR,
    CongestionControl.DCTCP,
)


def _config(cc: CongestionControl) -> ExperimentConfig:
    link = LinkConfig()
    if cc is CongestionControl.DCTCP:
        # DCTCP needs an ECN-marking switch in the path.
        link = LinkConfig(has_switch=True)
    return ExperimentConfig(tcp=TcpConfig(congestion_control=cc), link=link)


def _results() -> List[Tuple[str, ExperimentResult]]:
    results = run_all([_config(cc) for cc in PROTOCOLS])
    return [(cc.value, result) for cc, result in zip(PROTOCOLS, results)]


def fig13a() -> Table:
    table = Table(
        "Fig 13a: throughput-per-core (Gbps) per congestion control",
        ["protocol", "thpt_per_core_gbps", "total_thpt_gbps"],
    )
    for label, result in _results():
        table.add_row(
            label, result.throughput_per_core_gbps, result.total_throughput_gbps
        )
    return table


def fig13b() -> Table:
    return render_breakdown_table(
        "Fig 13b: sender CPU breakdown per congestion control",
        [(label, r.sender_breakdown) for label, r in _results()],
    )


def fig13c() -> Table:
    return render_breakdown_table(
        "Fig 13c: receiver CPU breakdown per congestion control",
        [(label, r.receiver_breakdown) for label, r in _results()],
    )
