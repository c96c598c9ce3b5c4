"""BBR congestion control (Cardwell et al., 2016), simplified.

Tracks bottleneck bandwidth (windowed-max delivery rate) and min RTT, paces
at ``pacing_gain * btl_bw`` cycling gains to probe, and caps inflight with
``cwnd = cwnd_gain * BDP``. Transmissions go through the fq/qdisc pacing
timer — repeated pacer wakeups are the extra sender-side scheduling overhead
the paper measures in Fig 13b.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from .base import CongestionController

#: Gain cycle used in the ProbeBW phase.
PROBE_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
STARTUP_GAIN = 2.885
CWND_GAIN = 2.0
#: TSO/GSO send quantum at high pacing rates (64KB).
SEND_QUANTUM_BYTES = 64 * 1024
#: Bandwidth filter window, in gain-cycle phases.
BW_FILTER_LEN = 10


class BbrCC(CongestionController):
    """Simplified BBR: startup + ProbeBW gain cycling."""

    uses_pacing = True

    def __init__(self, mss: int, init_cwnd_segments: int) -> None:
        super().__init__(mss, init_cwnd_segments)
        self._bw_samples: Deque[Tuple[int, float]] = deque(maxlen=BW_FILTER_LEN)
        self._rtt_samples: Deque[Tuple[int, int]] = deque()
        self._in_startup = True
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self._cycle_index = 0
        self._cycle_started_ns = 0
        self._last_ack_ns = -1
        self._pending_delivered = 0
        self._init_rate_bps = 8 * self.cwnd_bytes * 1e9 / 1e6  # cwnd per 1ms guess

    # --- estimators ---------------------------------------------------------

    @property
    def btl_bw_bps(self) -> float:
        if not self._bw_samples:
            return self._init_rate_bps
        return max(sample for _, sample in self._bw_samples)

    #: min-RTT filter window (tcp_bbr uses 10s; scaled to simulation length).
    MIN_RTT_WINDOW_NS = 10_000_000

    @property
    def min_rtt_ns(self) -> float:
        if not self._rtt_samples:
            return 1e5
        return min(rtt for _, rtt in self._rtt_samples)

    def _bdp_bytes(self) -> int:
        return max(4 * self.mss, int(self.btl_bw_bps / 8 * self.min_rtt_ns / 1e9))

    # --- hooks ---------------------------------------------------------------------

    def on_ack(self, acked_bytes: int, rtt_ns: int, ecn_echo: bool, now_ns: int) -> None:
        if rtt_ns > 0:
            self._rtt_samples.append((now_ns, rtt_ns))
            horizon = now_ns - self.MIN_RTT_WINDOW_NS
            while self._rtt_samples and self._rtt_samples[0][0] < horizon:
                self._rtt_samples.popleft()
        # Delivery-rate sample: all bytes acked since the previous distinct
        # ACK timestamp, over that gap (ACKs processed in one softirq batch
        # share a timestamp, so their bytes are pooled into one sample).
        if self._last_ack_ns < 0:
            self._last_ack_ns = now_ns
        self._pending_delivered += acked_bytes
        if now_ns > self._last_ack_ns:
            gap = now_ns - self._last_ack_ns
            delivery_rate = self._pending_delivered * 8 * 1e9 / gap
            # cap at plausible wire rates to filter ack-compression spikes
            self._bw_samples.append((now_ns, min(delivery_rate, 120e9)))
            self._pending_delivered = 0
            self._last_ack_ns = now_ns

        if self._in_startup:
            bw = self.btl_bw_bps
            if bw > self._full_bw * 1.25:
                self._full_bw = bw
                self._full_bw_rounds = 0
            else:
                self._full_bw_rounds += 1
                if self._full_bw_rounds >= 3:
                    self._in_startup = False
                    self._cycle_started_ns = now_ns
        elif now_ns - self._cycle_started_ns > self.min_rtt_ns:
            self._cycle_index = (self._cycle_index + 1) % len(PROBE_GAINS)
            self._cycle_started_ns = now_ns

        # cwnd = gain * BDP plus send-quantum headroom (tcp_bbr adds three
        # send quanta so TSO-sized bursts are never inflight-starved by a
        # min_rtt probe taken on an unloaded path).
        self.cwnd_bytes = int(CWND_GAIN * self._bdp_bytes()) + 3 * SEND_QUANTUM_BYTES
        self._clamp()

    def on_loss(self, now_ns: int) -> None:
        # BBR does not react to isolated losses with multiplicative decrease.
        self.in_recovery = True

    def on_timeout(self, now_ns: int) -> None:
        self.cwnd_bytes = max(4 * self.mss, self.cwnd_bytes // 2)
        self.in_recovery = False

    def pacing_rate_bps(self) -> float:
        gain = STARTUP_GAIN if self._in_startup else PROBE_GAINS[self._cycle_index]
        return max(1e6, gain * self.btl_bw_bps)
