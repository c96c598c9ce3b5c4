"""DCTCP congestion control (Alizadeh et al., SIGCOMM 2010).

Scales the window cut to the *fraction* of ECN-marked bytes per window:
``cwnd <- cwnd * (1 - alpha/2)`` where ``alpha`` is an EWMA of the marked
fraction. Receiver-side behaviour is identical to other sender-driven
protocols — the paper's Fig 13c point.
"""

from __future__ import annotations

from .base import CongestionController

#: EWMA gain for the marked fraction (g in the DCTCP paper).
DCTCP_G = 1 / 16


class DctcpCC(CongestionController):
    """DCTCP: ECN-proportional multiplicative decrease."""

    def __init__(self, mss: int, init_cwnd_segments: int) -> None:
        super().__init__(mss, init_cwnd_segments)
        self.alpha = 1.0
        self._acked_bytes_window = 0
        self._marked_bytes_window = 0
        self._window_end_seq_bytes = 0  # bytes acked when current obs window closes
        self._total_acked = 0
        self._avoidance_acc = 0

    def on_ack(self, acked_bytes: int, rtt_ns: int, ecn_echo: bool, now_ns: int) -> None:
        self._total_acked += acked_bytes
        self._acked_bytes_window += acked_bytes
        if ecn_echo:
            self._marked_bytes_window += acked_bytes

        if self._total_acked >= self._window_end_seq_bytes:
            # one observation window (~1 cwnd of data) completed
            if self._acked_bytes_window > 0:
                fraction = self._marked_bytes_window / self._acked_bytes_window
                self.alpha = (1 - DCTCP_G) * self.alpha + DCTCP_G * fraction
                if self._marked_bytes_window > 0 and not self.in_recovery:
                    self.cwnd_bytes = int(self.cwnd_bytes * (1 - self.alpha / 2))
                    self._clamp()
            self._acked_bytes_window = 0
            self._marked_bytes_window = 0
            self._window_end_seq_bytes = self._total_acked + self.cwnd_bytes

        if self.in_recovery:
            return
        if self.in_slow_start and not ecn_echo:
            self.cwnd_bytes += acked_bytes
        else:
            self._avoidance_acc += acked_bytes
            if self._avoidance_acc >= self.cwnd_bytes:
                self._avoidance_acc -= self.cwnd_bytes
                self.cwnd_bytes += self.mss
        self._clamp()

    def on_loss(self, now_ns: int) -> None:
        self.ssthresh_bytes = max(2 * self.mss, self.cwnd_bytes // 2)
        # never *grow* the window on a loss signal
        self.cwnd_bytes = min(self.cwnd_bytes, self.ssthresh_bytes)
        self.in_recovery = True
        self._clamp()
