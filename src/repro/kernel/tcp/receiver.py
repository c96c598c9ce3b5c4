"""TCP receiver: the receive half of one connection on one host.

This implements §2.1's receiver-side path: in-order skbs (post-GRO) land on
the socket queue, out-of-order ones wait in the OOO queue, ACKs are generated
per ``ACK_EVERY_N_SEGMENTS`` segments (plus delayed-ACK and duplicate-ACK rules),
and the application's ``recv`` performs the single payload copy, with L3
hit/miss decided by DCA residency at copy time. Receive-buffer autotuning
(DRS) runs from one :class:`AutotuneClock` per host.

A host holds a :class:`TcpReceiver` only for the flows that deliver data to
it: a stream's receiver host, or both ends of an RPC connection (where
``sender`` points at the connection's transmit half on the same host).

Convention used throughout: TCP *state* mutates when work is submitted to a
core; externally visible *effects* (frames on the wire, data visible to the
app, thread wakeups) happen when the corresponding CPU job completes.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from ...constants import (
    ACK_EVERY_N_SEGMENTS,
    DEFAULT_TCP_RX_BUFFER_BYTES,
    DELAYED_ACK_TIMEOUT_NS,
    PAGE_BYTES,
)
from ...hardware.cpu import PRIORITY_APP, PRIORITY_SOFTIRQ
from ...hardware.link import Frame
from ...units import kb
from ..sched import charge_wakeup
from ..skb import Skb
from ..socket import Socket
from .ack import AckInfo

if TYPE_CHECKING:  # pragma: no cover
    from ...hardware.cpu import Core
    from ..host import Host
    from .sender import TcpSender

ChargeItems = List[Tuple[str, float]]

#: Receive-buffer autotuning period (DRS runs on this cadence here).
AUTOTUNE_PERIOD_NS = 250_000
#: Network RTT the autotuner assumes (direct link, both stacks unloaded).
AUTOTUNE_BASE_RTT_NS = 50_000
#: Fraction of the standing host queue the DRS RTT estimate "sees"; this is
#: what makes the autotuner overshoot on receiver-CPU-bound flows (§3.1).
AUTOTUNE_QUEUE_GAIN = 0.8
#: Autotuned buffers never shrink below this (tcp_rmem-style floor).
AUTOTUNE_FLOOR_BYTES = 64 * 1024
#: ... and never grow above this (tcp_rmem-style maximum).
AUTOTUNE_MAX_BYTES = kb(4096)


class TcpReceiver:
    """The receive half of one TCP connection on one host."""

    __slots__ = (
        "host", "flow_id", "app_core", "costs", "tables", "engine", "trace",
        "mss", "softirq_core", "sender", "rcv_nxt", "socket", "_ooo",
        "_segs_since_ack", "_bytes_since_ack", "_ecn_pending",
        "_advertised_free", "_delack_event", "acks_sent", "app_bytes_read",
        "rx_limbo_bytes", "_delivered_since_autotune",
    )

    def __init__(self, host: "Host", flow_id: int, app_core: "Core") -> None:
        self.host = host
        self.flow_id = flow_id
        self.app_core = app_core
        self.costs = host.costs
        self.tables = host.costs.tables()
        self.engine = host.engine
        cfg = host.config
        self.trace = host.trace
        self.mss = cfg.opts.mtu - 40  # IP + TCP headers live inside the MTU
        #: Core where this flow's softirq (NAPI/TCP) processing happens; the
        #: host sets it when it steers the flow.
        self.softirq_core: "Core" = app_core
        #: The same connection's transmit half on this host (RPC), else None.
        self.sender: Optional["TcpSender"] = None

        self.rcv_nxt = 0
        pinned = cfg.tcp.rx_buffer_bytes
        # DRS (no pinned size) starts from a small buffer and only grows it
        # as the flow demonstrates demand (tcp_rmem default behaviour); the
        # updates run from the host's AutotuneClock (see Host.add_receiver).
        self.socket = Socket(
            flow_id, AUTOTUNE_FLOOR_BYTES if pinned is None else pinned
        )
        self._ooo: List[Skb] = []  # sorted by seq
        self._segs_since_ack = 0
        self._bytes_since_ack = 0
        self._ecn_pending = False
        # Under DRS the first advertised window is the 3200 KB default
        # buffer, not the floor the socket starts from.
        self._advertised_free = (
            DEFAULT_TCP_RX_BUFFER_BYTES if pinned is None else pinned
        )
        self._delack_event = None
        self.acks_sent = 0
        #: Total bytes the application has drained from the socket.
        self.app_bytes_read = 0
        #: Bytes committed to the receive stream (``rcv_nxt`` advanced) whose
        #: socket enqueue is deferred until the softirq CPU job completes.
        self.rx_limbo_bytes = 0
        self._delivered_since_autotune = 0

    def _lock_item(self) -> Tuple[str, float]:
        """Socket-lock charge: contended when app and softirq contexts run
        on different cores (the §3.1 no-aRFS lock overhead)."""
        if self.softirq_core is self.app_core:
            return self.tables.sock_lock_item
        return self.tables.sock_lock_contended_item

    # ------------------------------------------------------ data from NAPI

    def on_data_skb(
        self,
        skb: Skb,
        poll_core: "Core",
        items: ChargeItems,
        deferred: List[Callable[[], None]],
        ack_frames: List[Frame],
    ) -> None:
        """Process one post-GRO data skb in softirq context."""
        items.extend(self.tables.rx_skb_prefix)
        items.append(self._lock_item())
        if skb.ecn:
            self._ecn_pending = True

        rcv_nxt = self.rcv_nxt
        # invariant under front-trimming: seq += d, payload -= d
        end_seq = skb.seq + skb.payload_bytes
        if end_seq <= rcv_nxt:
            # Entirely duplicate (spurious retransmission): drop and re-ACK.
            self._discard_skb(skb, poll_core, items)
            self._emit_ack(items, ack_frames, dup=False)
            return

        if skb.seq < rcv_nxt:
            self._trim_skb_front(skb, rcv_nxt - skb.seq)

        if skb.seq == rcv_nxt:
            self.rcv_nxt = end_seq
            if self._ooo:
                ready = [skb]
                ready.extend(self._pull_ooo(poll_core, items))
            else:
                ready = (skb,)
            ready_bytes = 0
            for piece in ready:
                ready_bytes += piece.payload_bytes
                deferred.append(partial(self._deliver_to_socket, piece, poll_core))
            self.rx_limbo_bytes += ready_bytes
            self._segs_since_ack += len(ready)
            self._bytes_since_ack += ready_bytes
            # Linux ACKs at least every 2 MSS of new data (quickack rule);
            # post-GRO skbs carry many MSS, so in practice this is one ACK
            # per merged skb.
            if self._bytes_since_ack >= ACK_EVERY_N_SEGMENTS * self.mss:
                self._emit_ack(items, ack_frames, dup=False)
            else:
                self._ensure_delack_timer()
        else:
            # Out of order: queue and send an immediate duplicate ACK.
            items.append(self.tables.ofo_queue_item)
            self._insert_ooo(skb)
            self._emit_ack(items, ack_frames, dup=True)

    def on_probe_frame(self, items: ChargeItems, ack_frames: List[Frame]) -> None:
        """Zero-window probe from the peer: answer with the current window."""
        self._emit_ack(items, ack_frames, dup=False)

    def _trim_skb_front(self, skb: Skb, delta: int) -> None:
        """Drop the first ``delta`` bytes (already received) of a retransmit."""
        skb.seq += delta
        skb.payload_bytes -= delta
        trimmed = 0
        while skb.regions and trimmed < delta:
            region_id, nbytes = skb.regions[0]
            if trimmed + nbytes > delta:
                break
            skb.regions.pop(0)
            trimmed += nbytes
            self.host.dca_discard(region_id)
        skb.pages = (skb.payload_bytes + PAGE_BYTES - 1) // PAGE_BYTES

    def _discard_skb(self, skb: Skb, core: "Core", items: ChargeItems) -> None:
        for region_id, _ in skb.regions:
            self.host.dca_discard(region_id)
        items.extend(self.tables.skb_free_pair)
        items.extend(
            self.host.allocator.free(core.key, core.numa_node, skb.pages, skb.page_node)
        )

    def _insert_ooo(self, skb: Skb) -> None:
        index = 0
        for index, existing in enumerate(self._ooo):  # noqa: B007
            if existing.seq >= skb.seq:
                if existing.seq == skb.seq:
                    # duplicate of an already-queued ooo segment: drop it
                    for region_id, _ in skb.regions:
                        self.host.dca_discard(region_id)
                    self.host.allocator.free(
                        self.softirq_core.key,
                        self.softirq_core.numa_node,
                        skb.pages,
                        skb.page_node,
                    )
                    return
                break
        else:
            index = len(self._ooo)
        self._ooo.insert(index, skb)

    def _pull_ooo(self, core: "Core", items: ChargeItems) -> List[Skb]:
        """Drain out-of-order segments made contiguous by a new arrival."""
        ready: List[Skb] = []
        while self._ooo:
            head = self._ooo[0]
            if head.seq > self.rcv_nxt:
                break
            self._ooo.pop(0)
            if head.end_seq <= self.rcv_nxt:
                self._discard_skb(head, core, items)
                continue
            if head.seq < self.rcv_nxt:
                self._trim_skb_front(head, self.rcv_nxt - head.seq)
            self.rcv_nxt = head.end_seq
            ready.append(head)
        return ready

    def _deliver_to_socket(self, skb: Skb, softirq_core: "Core") -> None:
        """Deferred: make payload visible to the application and wake it."""
        self.rx_limbo_bytes -= skb.payload_bytes
        if self.trace is not None:
            # Socket-enqueue stamp (read back at drain in do_recv). Runs in
            # a job completion, so engine.now is the enqueue instant.
            skb.trace_ns = self.engine.now
        self.socket.enqueue(skb)
        waiter = self.socket.waiter
        if waiter is not None and self.socket.unread_bytes >= waiter.min_bytes:
            self.socket.waiter = None
            charge_wakeup(softirq_core)
            waiter.fulfill()

    # --- ACK generation -----------------------------------------------------------

    def _emit_ack(self, items: ChargeItems, ack_frames: List[Frame], dup: bool) -> None:
        items.extend(self.tables.ack_tx_pair)
        ack_frames.append(self.build_ack_frame(dup))
        self._segs_since_ack = 0
        self._bytes_since_ack = 0
        self._cancel_delack()

    #: Maximum holes reported per ACK (SACK option space is finite; Linux
    #: packs a few blocks per ACK but refreshes them on every dupack).
    MAX_SACK_HOLES = 16

    def _current_holes(self) -> List[Tuple[int, int]]:
        """Missing ranges implied by the out-of-order queue."""
        holes: List[Tuple[int, int]] = []
        prev_end = self.rcv_nxt
        for skb in self._ooo:
            if skb.seq > prev_end:
                holes.append((prev_end, skb.seq))
                if len(holes) >= self.MAX_SACK_HOLES:
                    break
            prev_end = max(prev_end, skb.end_seq)
        return holes

    def build_ack_frame(self, dup: bool) -> Frame:
        window = self.socket.advertised_window()
        info = AckInfo(
            ack_seq=self.rcv_nxt,
            window_bytes=window,
            dup=dup,
            # SACK blocks ride on every ACK while the ooo queue is non-empty,
            # so cumulative ACKs during recovery keep the sender's scoreboard
            # fresh even after duplicate ACKs dry up.
            holes=self._current_holes() if self._ooo else [],
            ecn_echo=self._ecn_pending,
        )
        self._ecn_pending = False
        self._advertised_free = window
        self.acks_sent += 1
        # direct slot assignment (bypassing __init__): one frame per ACK sent
        frame = Frame.__new__(Frame)
        frame.flow_id = self.flow_id
        frame.kind = Frame.KIND_ACK
        frame.seq = self.rcv_nxt
        frame.payload_bytes = 0
        frame.wire_bytes = 64
        frame.ack = info
        frame.ecn_marked = False
        frame.trace_ns = None
        return frame

    def _ensure_delack_timer(self) -> None:
        if self._delack_event is not None:
            return
        self._delack_event = self.engine.schedule(
            DELAYED_ACK_TIMEOUT_NS, self._delack_fire
        )

    def _cancel_delack(self) -> None:
        if self._delack_event is not None:
            self._delack_event.cancel()
            self._delack_event = None

    def _delack_fire(self) -> None:
        self._delack_event = None
        if self._segs_since_ack <= 0 and self._bytes_since_ack <= 0:
            return
        core = self.softirq_core
        items: ChargeItems = []
        ack_frames: List[Frame] = []
        self._emit_ack(items, ack_frames, dup=False)
        core.submit_work(
            core.softirq_context,
            items,
            lambda: self.host.nic.transmit(ack_frames),
            PRIORITY_SOFTIRQ,
        )

    # --- application receive ------------------------------------------------------------

    def do_recv(self, thread, max_bytes: int, on_complete: Callable[[int], None]) -> None:
        """Drain up to ``max_bytes`` from the socket into userspace."""
        socket = self.socket
        taken, portions = socket.drain(max_bytes)
        if taken <= 0:
            on_complete(0)
            return
        self.app_bytes_read += taken
        now = self.engine.now
        tables = self.tables
        host = self.host
        metrics = host.metrics
        items: ChargeItems = [
            tables.syscall_item,
            self._lock_item(),
        ]
        hit_bytes = 0
        miss_bytes = 0
        remote_bytes = 0  # payload living on a different NUMA node than the app
        freed_pages = None  # page node -> pages freed, in first-free order
        app_core = self.app_core
        app_node = app_core.numa_node
        trace = self.trace
        # The copy latency and the trace's receive stages open together;
        # before the window the skb stamps are still consumed below, but
        # nothing is recorded.
        latency = host.copy_latency
        recording = latency.recording
        if recording:
            latency_record = latency.record
            if trace is not None:
                stages = trace.stages
                softirq_record = stages["rx_softirq"].record
                sockq_record = stages["rx_sockq"].record
        for skb, chunk, fully in portions:
            h, m = self._consume_regions(skb, chunk)
            hit_bytes += h
            miss_bytes += m
            if skb.page_node != app_node:
                remote_bytes += chunk
            napi_ns = skb.napi_ns
            if napi_ns is not None:
                if recording:
                    # The trace's e2e stage is this same histogram.
                    latency_record(now - napi_ns)
                    if trace is not None:
                        # All three receive stages are recorded at drain time
                        # so their counts stay equal and the totals telescope
                        # exactly (e2e = rx_softirq + rx_sockq) — the
                        # auditor's identity — even for an skb enqueued
                        # before the window opened.
                        softirq_record(skb.trace_ns - napi_ns)
                        sockq_record(now - skb.trace_ns)
                skb.napi_ns = None  # count each skb's latency once
            if fully:
                items.extend(tables.skb_free_pair)
                if freed_pages is None:
                    freed_pages = {skb.page_node: skb.pages}
                else:
                    freed_pages[skb.page_node] = freed_pages.get(skb.page_node, 0) + skb.pages

        total = hit_bytes + miss_bytes
        if total <= 0:
            miss_fraction = 1.0
        else:
            miss_fraction = miss_bytes / total
        per_byte = tables.copy_per_byte(miss_fraction)
        copy_cycles = self.costs.copy_per_call + per_byte * taken
        # Cross-NUMA copies (frames DMA'd to a different node's memory, §3.1)
        # pay the interconnect on top of the L3 miss.
        copy_cycles += self.costs.copy_per_byte_remote_numa_extra * remote_bytes
        items.append(("copy_to_user", copy_cycles))
        metrics.record_receiver_copy(host.name, hit_bytes, miss_bytes)

        if freed_pages is not None:
            for page_node, npages in freed_pages.items():
                items.extend(
                    host.allocator.free(app_core.key, app_node, npages, page_node)
                )

        update_frames: Optional[List[Frame]] = None
        mss = self.mss
        if self._advertised_free <= 2 * mss and socket.advertised_window() >= max(
            4 * mss, socket.rx_buffer_bytes // 16
        ):
            update_frames = []
            self._emit_ack(items, update_frames, dup=False)

        self._delivered_since_autotune += taken

        def done() -> None:
            if trace is not None:
                # Copy start -> data visible (the recv job's charged cycles).
                trace.stage("rx_copy").record(self.engine.now - now)
            metrics.record_delivered(host.name, self.flow_id, taken)
            if update_frames:
                host.nic.transmit(update_frames)
            on_complete(taken)

        app_core.submit_work(thread, items, done, PRIORITY_APP)

    def _consume_regions(self, skb: Skb, chunk: int) -> Tuple[int, int]:
        """Consume DMA regions backing ``chunk`` bytes; return (hit, miss).

        A region can only hit if it was DMA'd into the DCA slice (NIC-local
        pages) *and* the application reads from the NIC-local node whose L3
        holds that slice.
        """
        hit = 0
        miss = 0
        consumed = 0
        nic = self.host.nic
        local_cache = self.app_core.numa_node == nic.numa_node
        dca = nic.dca
        regions = skb.regions
        taken = 0
        dca_consume = dca.consume if dca is not None else None
        for region_id, nbytes in regions:
            if consumed >= chunk:
                break
            taken += 1
            consumed += nbytes
            if dca_consume is None:
                resident, missed = 0, nbytes
            else:
                resident, missed = dca_consume(region_id, nbytes)
            if local_cache:
                hit += resident
                miss += missed
            else:
                miss += nbytes
        if taken:
            del regions[:taken]
        if consumed < chunk and not regions:
            # region bookkeeping exhausted (trim rounding): count as miss
            miss += chunk - consumed
        return hit, miss

    # --- receive-buffer autotuning (DRS, §3.1 footnote 6) -------------------------------------

    def _autotune_tick(self) -> None:
        """One DRS update over the bytes delivered since the last one.

        Touches only this receiver's counter and socket buffer and schedules
        nothing, so updates due at one instant commute; with nothing
        delivered it is a no-op.
        """
        delivered = self._delivered_since_autotune
        self._delivered_since_autotune = 0
        if delivered > 0:
            rate = delivered * 1e9 / AUTOTUNE_PERIOD_NS  # bytes/sec
            delivered_per_rtt = rate * AUTOTUNE_BASE_RTT_NS / 1e9
            buffer = self.socket.rx_buffer_bytes
            # DRS doubles the buffer while the flow demonstrably uses it:
            # either a full window arrives per network RTT (window-limited)
            # or the socket queue stands (receiver-CPU-bound, where the DRS
            # RTT sample inflates with host queueing). The latter is how the
            # kernel autotuner overshoots the DCA-friendly operating point
            # (§3.1, fn 6); for network-limited flows the buffer settles
            # near 2x the true BDP.
            # The peer can only fill the *advertised* window (~buffer/2).
            window_limited = delivered_per_rtt >= 0.25 * buffer
            queue_standing = (
                self.socket.unread_bytes >= AUTOTUNE_QUEUE_GAIN * buffer / 2
            )
            if window_limited or queue_standing:
                self.socket.rx_buffer_bytes = min(
                    2 * buffer, AUTOTUNE_MAX_BYTES
                )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<TcpReceiver flow={self.flow_id} host={self.host.name} "
            f"core={self.app_core.core_id}>"
        )


class AutotuneClock:
    """One periodic DRS clock shared by a host's autotuned receivers.

    Linux has no per-socket DRS timer (``tcp_rcv_space_adjust`` runs inside
    ``recvmsg``); here DRS runs every :data:`AUTOTUNE_PERIOD_NS`. One clock
    fires for all receivers registered at the instant it was created, so the
    engine carries one timer per host rather than one per connection, and a
    host with no receive half (a stream's sender) has no clock at all.
    Each update touches only its own receiver and schedules nothing, so
    running them together in registration order is byte-identical to
    per-connection timers firing at the same instant.
    """

    __slots__ = ("engine", "receivers")

    def __init__(self, engine) -> None:
        self.engine = engine
        self.receivers: List[TcpReceiver] = []
        engine.post(AUTOTUNE_PERIOD_NS, self._tick)

    def register(self, receiver: TcpReceiver) -> None:
        self.receivers.append(receiver)

    def _tick(self) -> None:
        for receiver in self.receivers:
            if receiver._delivered_since_autotune:
                receiver._autotune_tick()
        self.engine.post(AUTOTUNE_PERIOD_NS, self._tick)
