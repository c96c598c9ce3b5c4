"""Measurement collection: throughput, copy hit/miss, latency, skb sizes.

A single :class:`MetricsHub` is shared by both hosts of an experiment; the
experiment starts it at the end of warmup so only steady-state behaviour is
recorded (the paper's methodology, §2.2).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..trace import StageHistogram


@dataclass
class SideMetrics:
    """Per-host counters."""

    delivered_bytes: int = 0
    copy_hit_bytes: int = 0
    copy_miss_bytes: int = 0
    sender_copy_hit_bytes: int = 0
    sender_copy_miss_bytes: int = 0
    rx_skb_sizes: Counter = field(default_factory=Counter)

    def cache_miss_rate(self) -> float:
        total = self.copy_hit_bytes + self.copy_miss_bytes
        return self.copy_miss_bytes / total if total else 0.0

    def sender_cache_miss_rate(self) -> float:
        total = self.sender_copy_hit_bytes + self.sender_copy_miss_bytes
        return self.sender_copy_miss_bytes / total if total else 0.0


class MetricsHub:
    """Shared metric sink for one experiment.

    Until :meth:`start` (when built with ``recording=False``), every
    ``record_*`` call records nothing and no side exists. Each host's
    copy-latency histogram (:meth:`copy_latency`, Fig 3f's NAPI-to-copy
    interval) is built when its host is, since the receive path and the
    host's trace hold it; it stays closed until :meth:`start`.
    """

    def __init__(self, recording: bool = True) -> None:
        self._sides: Dict[str, SideMetrics] = {}
        self._copy_latency: Dict[str, StageHistogram] = {}
        self._per_flow_bytes: Dict[Tuple[str, int], int] = defaultdict(int)
        self._flow_tags: Dict[int, str] = {}
        self.recording = recording

    def start(self) -> None:
        """Open the measurement window: record every later sample."""
        self.recording = True
        for hist in self._copy_latency.values():
            hist.recording = True

    def reset(self) -> None:
        """Discard all measurements. Flow tags persist, and the copy-latency
        histograms are zeroed in place so their holders keep recording."""
        self._sides.clear()
        self._per_flow_bytes.clear()
        for hist in self._copy_latency.values():
            hist.clear()

    # --- registration ------------------------------------------------------------

    def register_flow(self, flow_id: int, tag: str) -> None:
        self._flow_tags.setdefault(flow_id, tag)

    # --- recording -----------------------------------------------------------------

    def side(self, host: str) -> SideMetrics:
        side = self._sides.get(host)
        if side is None:
            side = self._sides[host] = SideMetrics()
        return side

    def copy_latency(self, host: str) -> StageHistogram:
        """``host``'s copy-latency histogram; its recorders call ``record``
        on it directly."""
        hist = self._copy_latency.get(host)
        if hist is None:
            hist = self._copy_latency[host] = StageHistogram(self.recording)
        return hist

    def record_delivered(self, host: str, flow_id: int, nbytes: int) -> None:
        if not self.recording:
            return
        self.side(host).delivered_bytes += nbytes
        self._per_flow_bytes[(host, flow_id)] += nbytes

    def record_receiver_copy(self, host: str, hit: int, miss: int) -> None:
        if not self.recording:
            return
        side = self.side(host)
        side.copy_hit_bytes += hit
        side.copy_miss_bytes += miss

    def record_sender_copy(self, host: str, hit: int, miss: int) -> None:
        if not self.recording:
            return
        side = self.side(host)
        side.sender_copy_hit_bytes += hit
        side.sender_copy_miss_bytes += miss

    def record_rx_skb(self, host: str, payload_bytes: int) -> None:
        if not self.recording:
            return
        self.side(host).rx_skb_sizes[payload_bytes] += 1

    # --- queries ----------------------------------------------------------------------

    def total_delivered_bytes(self) -> int:
        return sum(side.delivered_bytes for side in self._sides.values())

    def delivered_by_tag(self, host: Optional[str] = None) -> Dict[str, int]:
        """Delivered bytes per flow tag.

        With ``host`` given, only that host's deliveries are counted. Summing
        over both hosts (``host=None``) double-counts request/response
        workloads where *each* side records deliveries for the same flow, so
        per-tag throughput should always be taken from one side.
        """
        out: Dict[str, int] = defaultdict(int)
        for (side_host, flow_id), nbytes in self._per_flow_bytes.items():
            if host is not None and side_host != host:
                continue
            out[self._flow_tags.get(flow_id, "untagged")] += nbytes
        return dict(out)

    def per_flow_delivered(self, host: str) -> Dict[int, int]:
        """Delivered bytes per flow on ``host`` (auditor cross-check)."""
        return {
            flow_id: nbytes
            for (side_host, flow_id), nbytes in self._per_flow_bytes.items()
            if side_host == host
        }

    def flow_bytes(self, host: str, flow_id: int) -> int:
        return self._per_flow_bytes.get((host, flow_id), 0)
