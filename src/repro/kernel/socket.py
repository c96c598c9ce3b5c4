"""Receive-side socket queue.

Holds in-order skbs until the application's ``recv`` copies them to
userspace. Supports partial consumption of the head skb (an application read
can end mid-skb); DMA regions are consumed region-by-region at copy time,
which is when L3 hit/miss is determined (§3.1).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from .skb import Skb


class Socket:
    """Per-connection receive queue with byte-level accounting."""

    __slots__ = (
        "flow_id", "rx_buffer_bytes", "_queue", "_head_offset", "unread_bytes",
        "waiter",
    )

    def __init__(self, flow_id: int, rx_buffer_bytes: int) -> None:
        self.flow_id = flow_id
        self.rx_buffer_bytes = rx_buffer_bytes
        self._queue: Deque[Skb] = deque()
        self._head_offset = 0  # bytes of the head skb already consumed
        self.unread_bytes = 0
        self.waiter = None  # set by the syscall layer (RecvOp)

    def enqueue(self, skb: Skb) -> None:
        """Append an in-order skb (called from softirq context)."""
        self._queue.append(skb)
        self.unread_bytes += skb.payload_bytes

    def drain(self, max_bytes: int) -> Tuple[int, List[Tuple[Skb, int, bool]]]:
        """Consume up to ``max_bytes`` from the queue.

        Returns ``(nbytes, portions)`` where each portion is
        ``(skb, bytes_taken, fully_consumed)``. The caller is responsible for
        charging copy costs and freeing fully-consumed skbs.
        """
        if max_bytes <= 0:
            return 0, []
        queue = self._queue
        offset = self._head_offset
        taken = 0
        portions: List[Tuple[Skb, int, bool]] = []
        while queue and taken < max_bytes:
            head = queue[0]
            remaining_in_head = head.payload_bytes - offset
            wanted = max_bytes - taken
            if remaining_in_head <= wanted:
                queue.popleft()
                offset = 0
                taken += remaining_in_head
                portions.append((head, remaining_in_head, True))
            else:
                offset += wanted
                taken += wanted
                portions.append((head, wanted, False))
        self._head_offset = offset
        self.unread_bytes -= taken
        return taken, portions

    def free_space(self) -> int:
        """Bytes of receive buffer left."""
        return max(0, self.rx_buffer_bytes - self.unread_bytes)

    def advertised_window(self) -> int:
        """Window advertised to the peer.

        Linux reserves half the buffer for skb metadata overhead
        (``tcp_adv_win_scale=1``), so the advertised window is about half of
        the free buffer space.
        """
        return self.free_space() // 2

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Socket flow={self.flow_id} unread={self.unread_bytes}>"
