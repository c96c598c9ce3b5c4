"""Measurement collection: throughput, copy hit/miss, latency, skb sizes.

A single :class:`MetricsHub` is shared by both hosts of an experiment; the
experiment starts it at the end of warmup so only steady-state behaviour is
recorded (the paper's methodology, §2.2).
"""

from __future__ import annotations

import math
import random
import zlib
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Cap on stored latency samples per host (runs are short; this is generous).
MAX_LATENCY_SAMPLES = 500_000

#: Fixed base seed for the latency reservoirs: sampling past the cap must be
#: deterministic so repeated runs of the same config report identical stats.
_RESERVOIR_SEED = 0x5EED


def _reservoir_seed(host: str) -> int:
    """Per-host reservoir seed: the base seed keyed by a *stable* hash of the
    host name (crc32, not Python's ``hash()``, which varies per process), so
    each host draws from its own RNG stream and its retained sample set is
    invariant to how the two hosts' recordings interleave."""
    return _RESERVOIR_SEED ^ zlib.crc32(host.encode("utf-8"))


@dataclass
class LatencyStats:
    """Summary of a latency sample set, in nanoseconds.

    ``count`` is the total number of observations recorded. ``retained`` is
    how many the hub stored verbatim (at most the reservoir cap) and
    ``dropped_samples`` counts recordings beyond it — ``count == retained +
    dropped_samples`` always. Overflow recordings are not silently discarded:
    past the cap the hub switches to deterministic seeded reservoir sampling,
    so the retained set stays a uniform sample of *all* recordings and the
    percentiles remain unbiased. ``avg_ns`` is exact: the running total of
    every observation over ``count``.
    """

    count: int
    avg_ns: float
    p50_ns: float
    p99_ns: float
    max_ns: float
    dropped_samples: int = 0
    retained: int = 0

    @classmethod
    def from_samples(
        cls,
        samples: List[int],
        dropped_samples: int = 0,
        total_ns: Optional[int] = None,
    ) -> "LatencyStats":
        """Summarize ``samples``. ``total_ns`` is the exact sum of every
        observation, retained or dropped (default: the retained sum, which
        is exact when nothing was dropped); ``avg_ns`` is that total over
        ``count``, so it stays exact past the reservoir cap."""
        if not samples:
            if dropped_samples:
                # Reservoir sampling keeps the stored set non-empty whenever
                # anything was recorded; dropped observations with nothing
                # retained would silently zero avg/percentiles.
                raise ValueError(
                    f"{dropped_samples} dropped latency samples but no "
                    "retained samples to summarize"
                )
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0, 0)
        ordered = sorted(samples)
        n = len(ordered)

        def pct(p: float) -> float:
            index = min(n - 1, max(0, math.ceil(p * n) - 1))
            return float(ordered[index])

        if total_ns is None:
            total_ns = sum(ordered)
        return cls(
            count=n + dropped_samples,
            avg_ns=total_ns / (n + dropped_samples),
            p50_ns=pct(0.50),
            p99_ns=pct(0.99),
            max_ns=float(ordered[-1]),
            dropped_samples=dropped_samples,
            retained=n,
        )


@dataclass
class SideMetrics:
    """Per-host counters.

    Each side owns its latency reservoir RNG (seeded from the host name):
    a hub-wide RNG would make one host's retained sample set depend on how
    the *other* host's recordings interleave with its own.
    """

    host: str = ""
    delivered_bytes: int = 0
    copy_hit_bytes: int = 0
    copy_miss_bytes: int = 0
    sender_copy_hit_bytes: int = 0
    sender_copy_miss_bytes: int = 0
    latency_samples: List[int] = field(default_factory=list)
    latency_dropped: int = 0
    latency_total_ns: int = 0
    rx_skb_sizes: Counter = field(default_factory=Counter)

    def __post_init__(self) -> None:
        self.latency_rng = random.Random(_reservoir_seed(self.host))

    def cache_miss_rate(self) -> float:
        total = self.copy_hit_bytes + self.copy_miss_bytes
        return self.copy_miss_bytes / total if total else 0.0

    def sender_cache_miss_rate(self) -> float:
        total = self.sender_copy_hit_bytes + self.sender_copy_miss_bytes
        return self.sender_copy_miss_bytes / total if total else 0.0


class MetricsHub:
    """Shared metric sink for one experiment.

    Until :meth:`start` (when built with ``recording=False``), every
    ``record_*`` call records nothing, so no side and no reservoir RNG
    exists before the measurement window: the first recording creates its
    side with a freshly seeded RNG, and sampling is independent of warmup.
    """

    def __init__(self, recording: bool = True) -> None:
        self._sides: Dict[str, SideMetrics] = {}
        self._per_flow_bytes: Dict[Tuple[str, int], int] = defaultdict(int)
        self._flow_tags: Dict[int, str] = {}
        self.recording = recording

    def start(self) -> None:
        """Open the measurement window: record every later sample."""
        self.recording = True

    def reset(self) -> None:
        """Discard all measurements. Flow tags persist.

        Sides are recreated lazily with freshly seeded reservoir RNGs.
        """
        self._sides.clear()
        self._per_flow_bytes.clear()

    # --- registration ------------------------------------------------------------

    def register_flow(self, flow_id: int, tag: str) -> None:
        self._flow_tags.setdefault(flow_id, tag)

    # --- recording -----------------------------------------------------------------

    def side(self, host: str) -> SideMetrics:
        side = self._sides.get(host)
        if side is None:
            side = self._sides[host] = SideMetrics(host)
        return side

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

    def record_copy_latency(self, host: str, latency_ns: int) -> None:
        """Record one stack-latency sample.

        Below the cap, samples are stored verbatim. Past it, Vitter's
        algorithm R keeps the stored set a uniform random sample of everything
        seen (seeded, hence deterministic) instead of silently truncating —
        which would bias p99/max toward early steady state.
        """
        if not self.recording:
            return
        side = self.side(host)
        side.latency_total_ns += latency_ns
        samples = side.latency_samples
        if len(samples) < MAX_LATENCY_SAMPLES:
            samples.append(latency_ns)
            return
        side.latency_dropped += 1
        seen = MAX_LATENCY_SAMPLES + side.latency_dropped
        slot = side.latency_rng.randrange(seen)
        if slot < MAX_LATENCY_SAMPLES:
            samples[slot] = latency_ns

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

    def latency_stats(self, host: str) -> LatencyStats:
        side = self.side(host)
        return LatencyStats.from_samples(
            side.latency_samples, side.latency_dropped, side.latency_total_ns
        )
