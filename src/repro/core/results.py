"""Experiment results: the quantities the paper's figures plot."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..trace import StageHistogram, TraceReport
from .audit import AuditReport
from .taxonomy import Category


@dataclass
class BreakdownTable:
    """A CPU-cycle breakdown by Table-1 category (fractions sum to ~1)."""

    fractions: Dict[Category, float]

    def fraction(self, category: Category) -> float:
        return self.fractions.get(category, 0.0)

    def top(self) -> Tuple[Category, float]:
        """The dominant category."""
        return max(self.fractions.items(), key=lambda item: item[1])

    def as_rows(self) -> List[Tuple[str, float]]:
        return [(cat.label, self.fractions.get(cat, 0.0)) for cat in Category]

    def __getitem__(self, category: Category) -> float:
        return self.fraction(category)


@dataclass
class ExperimentResult:
    """Everything measured in one run."""

    config_summary: str
    duration_ns: int

    total_throughput_gbps: float
    sender_utilization_cores: float
    receiver_utilization_cores: float

    sender_breakdown: BreakdownTable
    receiver_breakdown: BreakdownTable

    receiver_cache_miss_rate: float
    sender_cache_miss_rate: float

    #: The receiver host's NAPI-to-copy latency (Fig 3f).
    copy_latency: StageHistogram
    rx_skb_sizes: Dict[int, int] = field(default_factory=dict)

    retransmits: int = 0
    timeouts: int = 0
    nic_rx_drops: int = 0
    wire_drops: int = 0
    acks_received_sender_side: int = 0
    throughput_by_tag_gbps: Dict[str, float] = field(default_factory=dict)
    per_flow_gbps: Dict[int, float] = field(default_factory=dict)

    #: Conservation-audit outcome; only populated when the experiment ran
    #: with auditing enabled (``Experiment(config, audit=True)`` / ``--audit``).
    audit_report: Optional[AuditReport] = None

    #: Per-stage latency breakdown; only populated when the experiment ran
    #: with tracing enabled (``config.trace`` / ``repro trace <panel>``).
    trace: Optional[TraceReport] = None

    # --- derived metrics (paper's headline quantities) ---------------------------

    @property
    def bottleneck_side(self) -> str:
        """The side whose CPU limits throughput (§2.2: higher utilization)."""
        if self.receiver_utilization_cores >= self.sender_utilization_cores:
            return "receiver"
        return "sender"

    @property
    def bottleneck_utilization_cores(self) -> float:
        return max(self.sender_utilization_cores, self.receiver_utilization_cores)

    @property
    def throughput_per_core_gbps(self) -> float:
        """Total throughput / CPU utilization at the bottleneck side."""
        util = self.bottleneck_utilization_cores
        return self.total_throughput_gbps / util if util > 0 else 0.0

    @property
    def throughput_per_sender_core_gbps(self) -> float:
        """Fig 7's metric: throughput per unit of *sender* CPU."""
        util = self.sender_utilization_cores
        return self.total_throughput_gbps / util if util > 0 else 0.0

    @property
    def throughput_per_receiver_core_gbps(self) -> float:
        util = self.receiver_utilization_cores
        return self.total_throughput_gbps / util if util > 0 else 0.0

    def skb_size_cdf(self) -> List[Tuple[int, float]]:
        """CDF of post-GRO skb sizes at the receiver (Fig 8c)."""
        total = sum(self.rx_skb_sizes.values())
        if not total:
            return []
        out: List[Tuple[int, float]] = []
        acc = 0
        for size in sorted(self.rx_skb_sizes):
            acc += self.rx_skb_sizes[size]
            out.append((size, acc / total))
        return out

    def mean_rx_skb_bytes(self) -> float:
        total = sum(self.rx_skb_sizes.values())
        if not total:
            return 0.0
        return sum(size * count for size, count in self.rx_skb_sizes.items()) / total

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        top_rx, frac_rx = self.receiver_breakdown.top()
        return (
            f"{self.config_summary}: {self.total_throughput_gbps:.1f}Gbps total, "
            f"{self.throughput_per_core_gbps:.1f}Gbps/core "
            f"(bottleneck={self.bottleneck_side}, "
            f"snd={self.sender_utilization_cores:.2f} cores, "
            f"rcv={self.receiver_utilization_cores:.2f} cores), "
            f"rcv miss={self.receiver_cache_miss_rate:.0%}, "
            f"top rcv category={top_rx.label} ({frac_rx:.0%})"
        )
