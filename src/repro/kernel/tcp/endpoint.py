"""TCP endpoint: the per-connection transmit and receive halves on one host.

The transmit half implements §2.1's sender-side path: ``sendmsg`` copies user
data into kernel pages (cost depends on sender L3 warmth), TCP/IP processing
emits GSO-sized skbs when window space allows, segmentation happens in the
NIC (TSO) or in software (GSO), and ACK processing — including loss recovery —
runs in softirq context on whatever core the flow's ACKs are steered to.

The receive half implements the receiver-side path: in-order skbs (post-GRO)
land on the socket queue, ACKs are generated per ``ack_every_n_segments``
skbs (plus delayed-ACK and duplicate-ACK rules), and the application's
``recv`` performs the single payload copy, with L3 hit/miss decided by DCA
residency at copy time.

Convention used throughout: TCP *state* mutates when work is submitted to a
core; externally visible *effects* (frames on the wire, data visible to the
app, thread wakeups) happen when the corresponding CPU job completes.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional, Tuple

from ...constants import (
    FRAME_OVERHEAD_BYTES,
    MAX_GSO_SIZE,
    PAGE_BYTES,
    TCP_MIN_RTO_NS,
)
from ...hardware.cpu import PRIORITY_APP, PRIORITY_SOFTIRQ
from ...hardware.link import Frame
from ...units import msec
from ..sched import charge_wakeup
from ..skb import Skb
from ..socket import Socket
from .ack import AckInfo
from .cc import make_congestion_controller

if TYPE_CHECKING:  # pragma: no cover
    from ...hardware.cpu import Core
    from ..host import Host

ChargeItems = List[Tuple[str, float]]

#: Maximum bytes emitted by one transmit job (tcp_write_xmit quantum).
TX_BURST_BYTES = 256 * 1024
#: Maximum bytes copied user->kernel per sendmsg job.
SENDMSG_CHUNK_BYTES = 256 * 1024
#: Upper bound on the retransmission timer.
TCP_MAX_RTO_NS = msec(200)
#: Zero-window probe interval.
ZERO_WINDOW_PROBE_NS = msec(2)
#: Receive-buffer autotuning period (DRS runs on this cadence here).
AUTOTUNE_PERIOD_NS = 250_000
#: Network RTT the autotuner assumes (direct link, both stacks unloaded).
AUTOTUNE_BASE_RTT_NS = 50_000
#: Fraction of the standing host queue the DRS RTT estimate "sees"; this is
#: what makes the autotuner overshoot on receiver-CPU-bound flows (§3.1).
AUTOTUNE_QUEUE_GAIN = 0.8
#: Autotuned buffers never shrink below this (tcp_rmem-style floor).
AUTOTUNE_FLOOR_BYTES = 64 * 1024


class _Segment:
    """One in-flight transmitted unit (an skb on the retransmit queue)."""

    __slots__ = ("seq", "length", "pages", "retx_ns")

    def __init__(self, seq: int, length: int) -> None:
        self.seq = seq
        self.length = length
        self.pages = (length + PAGE_BYTES - 1) // PAGE_BYTES
        self.retx_ns = -1  # virtual time of the last retransmission

    @property
    def end_seq(self) -> int:
        return self.seq + self.length


class TcpEndpoint:
    """One side of a TCP connection on one host."""

    def __init__(
        self,
        host: "Host",
        flow_id: int,
        app_core: "Core",
        flow_tag: str = "long",
    ) -> None:
        self.host = host
        self.flow_id = flow_id
        self.app_core = app_core
        self.flow_tag = flow_tag
        self.costs = host.costs
        self.tables = host.costs.tables()
        self.engine = host.engine
        cfg = host.config
        self.opts = cfg.opts
        self.tcp_cfg = cfg.tcp
        self.trace = host.trace
        #: FIFO of ``[bytes, write_stamp]`` entries feeding the tx_queue
        #: stage; ``None`` unless tracing (zero overhead when off).
        self._tx_stamps: Optional[Deque] = (
            deque() if self.trace is not None else None
        )

        self.mss = self.opts.mtu - 40  # IP + TCP headers live inside the MTU
        self.gso_size = MAX_GSO_SIZE if self.opts.tso_gro else self.mss
        self.cc = make_congestion_controller(
            self.tcp_cfg.congestion_control, self.mss, self.tcp_cfg.init_cwnd_segments
        )

        self.peer: Optional["TcpEndpoint"] = None
        #: Core where this flow's softirq (NAPI/TCP) processing happens.
        self.softirq_core: "Core" = app_core

        # --- transmit half -------------------------------------------------
        self.snd_una = 0
        self.snd_nxt = 0
        self.unsent_bytes = 0
        #: Total bytes the application has pushed into this socket. The
        #: conservation auditor holds ``app_bytes_written == unsent_bytes +
        #: snd_nxt`` at every instant.
        self.app_bytes_written = 0
        #: Payload bytes re-emitted by retransmissions (duplicate wire bytes).
        self.retx_bytes = 0
        self.sndbuf_bytes = self.tcp_cfg.tx_buffer_bytes
        self.rwnd_bytes = 0  # set when the peer attaches
        self.segments: Deque[_Segment] = deque()
        self._writer: Optional[dict] = None
        self._tx_active = False
        self._dupacks = 0
        self._recovery_point = -1
        self._last_sack_walk_ns = -1
        self._rtt_sample: Optional[Tuple[int, int]] = None  # (seq, sent_ns)
        self.srtt_ns = 0.0
        self.rttvar_ns = 0.0
        #: Retransmission deadline (ns), or None when nothing is outstanding.
        #: ``_rto_event`` is the one pending fire; it never comes after the
        #: deadline, and a fire that comes before it re-arms at it.
        self._rto_deadline: Optional[int] = None
        self._rto_event = None
        self._rto_backoff = 1
        self._probe_event = None
        self._pacer_event = None
        self.retransmits = 0
        self.timeouts = 0

        # --- receive half ------------------------------------------------------
        self.rcv_nxt = 0
        self.socket = Socket(flow_id, self.tcp_cfg.rx_buffer_bytes)
        self._ooo: List[Skb] = []  # sorted by seq
        self._segs_since_ack = 0
        self._bytes_since_ack = 0
        self._ecn_pending = False
        self._advertised_free = self.socket.rx_buffer_bytes
        self._delack_event = None
        self.acks_sent = 0
        self.dup_acks_sent = 0
        #: Total bytes the application has drained from the socket.
        self.app_bytes_read = 0
        #: Bytes committed to the receive stream (``rcv_nxt`` advanced) whose
        #: socket enqueue is deferred until the softirq CPU job completes.
        self.rx_limbo_bytes = 0
        self._delivered_since_autotune = 0
        if self.tcp_cfg.autotune_rx_buffer:
            # DRS starts from a small buffer and only grows it as the flow
            # demonstrates demand (tcp_rmem default behaviour). The updates
            # run from the host's AutotuneClock (see Host.add_endpoint).
            self.socket.rx_buffer_bytes = min(
                self.socket.rx_buffer_bytes, AUTOTUNE_FLOOR_BYTES
            )

    # ------------------------------------------------------------------ setup

    def attach_peer(self, peer: "TcpEndpoint") -> None:
        """Wire the two connection halves together (handshake abstracted)."""
        self.peer = peer
        self.rwnd_bytes = peer.socket.advertised_window()

    def _softirq_context(self, core: "Core"):
        return ("softirq", core.core_id)

    def _lock_cost(self, touching_core: "Core") -> float:
        """Socket-lock cost: contended when app and softirq contexts run on
        different cores (the §3.1 no-aRFS lock overhead)."""
        if self.softirq_core is self.app_core:
            return self.costs.sock_lock_uncontended
        return self.costs.sock_lock_contended

    # =================================================================== TX ===

    def sendmsg(self, thread, nbytes: int, on_complete: Callable[[int], None]) -> None:
        """Application ``send()``: copy ``nbytes`` into the kernel and push."""
        if nbytes <= 0:
            raise ValueError("sendmsg needs a positive byte count")
        state = {
            "thread": thread,
            "remaining": nbytes,
            "total": nbytes,
            "on_complete": on_complete,
            "first": True,
        }
        self._sendmsg_chunk(state)

    def _sndbuf_free(self) -> int:
        used = (self.snd_nxt - self.snd_una) + self.unsent_bytes
        return max(0, self.sndbuf_bytes - used)

    def _sendmsg_chunk(self, state: dict) -> None:
        free = self._sndbuf_free()
        chunk = min(state["remaining"], free, SENDMSG_CHUNK_BYTES)
        thread = state["thread"]
        if chunk <= 0:
            # Blocked on send-buffer space; the ACK path wakes us.
            self._writer = state
            thread.block()
            return

        tables = self.tables
        items: ChargeItems = []
        if state["first"]:
            items.append(tables.syscall_item)
            state["first"] = False
        items.append(("lock_sock", self._lock_cost(self.app_core)))

        miss_rate = self.host.cache.sender_miss_rate(self.app_core.numa_node)
        per_byte = tables.copy_per_byte(miss_rate)
        items.append(("copy_from_user", self.costs.copy_per_call + per_byte * chunk))
        self.host.metrics.record_sender_copy(
            self.host.name, int(chunk * (1 - miss_rate)), int(chunk * miss_rate)
        )

        pages = (chunk + PAGE_BYTES - 1) // PAGE_BYTES
        items.extend(self.host.allocator.alloc(self.app_core.key, pages))
        nskbs = (chunk + self.gso_size - 1) // self.gso_size
        items.extend(tables.sendmsg_skbs(nskbs))

        state["remaining"] -= chunk
        self.unsent_bytes += chunk
        self.app_bytes_written += chunk
        if self._tx_stamps is not None:
            # Stamp at submission: TCP state (and hence transmit eligibility)
            # mutates now; the copy job's cycles are charged separately.
            self._tx_stamps.append([chunk, self.engine.now])

        def done() -> None:
            self.try_push(self.app_core, thread, PRIORITY_APP)
            if state["remaining"] > 0:
                self._sendmsg_chunk(state)
            else:
                state["on_complete"](state["total"])

        self.app_core.submit_work(thread, items, done, PRIORITY_APP)

    # --- emitting data ------------------------------------------------------------

    def _window_space(self) -> int:
        window = min(self.cc.cwnd_bytes, self.rwnd_bytes)
        return max(0, window - (self.snd_nxt - self.snd_una))

    def try_push(self, core: "Core", context, priority: int) -> None:
        """Emit as much unsent data as the window and burst quantum allow."""
        if self._tx_active:
            return
        if self.cc.uses_pacing:
            self._pacer_push(core)
            return
        burst = min(self.unsent_bytes, self._window_space(), TX_BURST_BYTES)
        if burst <= 0:
            self._maybe_schedule_zero_window_probe()
            return
        self._emit_burst(burst, core, context, priority)

    def _emit_burst(self, burst: int, core: "Core", context, priority: int) -> None:
        tables = self.tables
        mss = self.mss
        tso = self.opts.tso_gro
        segments = self.segments
        items: ChargeItems = []
        frames: List[Frame] = []
        nskbs = 0
        emitted = 0
        while emitted < burst:
            size = min(self.gso_size, burst - emitted)
            seq = self.snd_nxt
            segments.append(_Segment(seq, size))
            self.snd_nxt += size
            emitted += size
            nskbs += 1
            seg_items, nframes = tables.segmentation(size, mss, tso)
            items.extend(seg_items)
            frames.extend(self._build_data_frames(seq, size, nframes))
        self.unsent_bytes -= emitted

        trace = self.trace
        xmit_record = None
        submit_now = 0
        if trace is not None:
            # tx_queue closes here: one sample per sendmsg chunk, from its
            # write stamp to this transmit decision. Chunks may span bursts;
            # the head entry is decremented in place until exhausted.
            submit_now = self.engine.now
            queue_record = trace.stage("tx_queue").record
            stamps = self._tx_stamps
            remaining = emitted
            while remaining > 0 and stamps:
                head = stamps[0]
                take = head[0] if head[0] <= remaining else remaining
                head[0] -= take
                remaining -= take
                if head[0] == 0:
                    stamps.popleft()
                    queue_record(submit_now - head[1])
            xmit_record = trace.stage("tx_xmit").record

        items.extend(tables.tx_tail(nskbs))
        pages = (emitted + PAGE_BYTES - 1) // PAGE_BYTES
        items.extend(self.host.iommu.map_charges(pages))
        items.extend(self.host.iommu.unmap_charges(pages))

        if self._rtt_sample is None:
            self._rtt_sample = (self.snd_nxt, self.engine.now)

        self._tx_active = True

        def done() -> None:
            self._tx_active = False
            if xmit_record is not None:
                # This job's completion is the NIC-doorbell instant.
                xmit_record(self.engine.now - submit_now)
            self.host.nic.transmit(frames)
            self._arm_rto()
            self.try_push(core, context, priority)

        core.submit_work(context, items, done, priority)

    def _build_data_frames(self, seq: int, size: int, nframes: int) -> List[Frame]:
        frames: List[Frame] = []
        append = frames.append
        mss = self.mss
        flow_id = self.flow_id
        kind_data = Frame.KIND_DATA
        offset = 0
        frame_new = Frame.__new__
        for _ in range(nframes):
            remaining = size - offset
            payload = mss if mss < remaining else remaining
            if payload <= 0:
                break
            # direct slot assignment (bypassing __init__): per-frame hot path
            frame = frame_new(Frame)
            frame.flow_id = flow_id
            frame.kind = kind_data
            frame.seq = seq + offset
            frame.payload_bytes = payload
            frame.wire_bytes = payload + FRAME_OVERHEAD_BYTES
            frame.ack = None
            frame.ecn_marked = False
            frame.trace_ns = None
            append(frame)
            offset += payload
        return frames

    # --- pacing (BBR) -----------------------------------------------------------------

    def _pacer_push(self, core: "Core") -> None:
        """Emit one pacing quantum and schedule the next pacer firing."""
        if self._pacer_event is not None:
            return
        burst = min(self.unsent_bytes, self._window_space(), self.gso_size)
        if burst <= 0:
            self._maybe_schedule_zero_window_probe()
            return
        context = self._softirq_context(self.app_core)
        self._emit_burst(burst, self.app_core, context, PRIORITY_SOFTIRQ)
        rate = self.cc.pacing_rate_bps()
        gap_ns = max(1000, int(burst * 8 * 1e9 / rate))
        self._pacer_event = self.engine.schedule(gap_ns, self._pacer_fire)

    def _pacer_fire(self) -> None:
        self._pacer_event = None
        if self.unsent_bytes <= 0:
            return
        # The fq pacer's hrtimer wakes the transmit path: scheduling overhead.
        context = self._softirq_context(self.app_core)
        items: ChargeItems = [("hrtimer_wakeup", self.costs.pacer_timer_cycles)]
        self.app_core.submit_work(
            context, items, lambda: self._pacer_push(self.app_core), PRIORITY_SOFTIRQ
        )

    # --- ACK processing (runs during sender-side NAPI polls) -------------------------------

    def on_ack_frame(
        self,
        info: AckInfo,
        poll_core: "Core",
        items: ChargeItems,
        deferred: List[Callable[[], None]],
    ) -> None:
        """Process one incoming ACK. Appends CPU charges to the poll job."""
        items.append(self.tables.ack_rx_item)
        now = self.engine.now

        if info.ack_seq > self.snd_una:
            acked = info.ack_seq - self.snd_una
            self.snd_una = info.ack_seq
            self._dupacks = 0
            self._clean_rtx_queue(info.ack_seq, poll_core, items)

            rtt = 0
            if self._rtt_sample is not None and info.ack_seq >= self._rtt_sample[0]:
                rtt = now - self._rtt_sample[1]
                self._rtt_sample = None
                self._update_rtt(rtt)

            if self._recovery_point >= 0:
                if info.ack_seq >= self._recovery_point:
                    # Episode over; fresh holes start a new episode below.
                    self._recovery_point = -1
                    self.cc.on_recovery_exit(now)
                else:
                    # Partial ACK inside recovery: repair the reported holes.
                    self._retransmit_for_holes(info, poll_core, deferred)
            elif info.holes:
                # Losses reported without a dupack run (stretch ACKs).
                self._recovery_point = self.snd_nxt
                self.cc.on_loss(now)
                self._retransmit_for_holes(info, poll_core, deferred)
            self.cc.on_ack(acked, rtt, info.ecn_echo, now)
            self.rwnd_bytes = info.window_bytes
            self._rto_backoff = 1
            self._arm_rto()
            deferred.append(lambda: self._after_ack(poll_core))
        elif info.dup:
            items.append(self.tables.dupack_extra_item)
            self._dupacks += 1
            self.cc.on_dup_ack(now)
            self.rwnd_bytes = max(self.rwnd_bytes, info.window_bytes)
            # Early retransmit (RACK-style): with few segments in flight a
            # third dupack may never arrive, so lower the threshold.
            dupack_threshold = 3 if len(self.segments) > 4 else 1
            if self._dupacks >= dupack_threshold and self._recovery_point < 0:
                self._recovery_point = self.snd_nxt
                self.cc.on_loss(now)
                self._retransmit_for_holes(info, poll_core, deferred)
            elif self._recovery_point >= 0:
                self._retransmit_for_holes(info, poll_core, deferred)
        else:
            # Window update without new data acked.
            self.rwnd_bytes = max(self.rwnd_bytes, info.window_bytes)
            deferred.append(lambda: self._after_ack(poll_core))

    def _after_ack(self, poll_core: "Core") -> None:
        self._wake_writer_if_space(poll_core)
        self.try_push(poll_core, self._softirq_context(poll_core), PRIORITY_SOFTIRQ)

    def _clean_rtx_queue(self, ack_seq: int, core: "Core", items: ChargeItems) -> None:
        freed_skbs = 0
        freed_pages = 0
        while self.segments and self.segments[0].end_seq <= ack_seq:
            segment = self.segments.popleft()
            freed_skbs += 1
            freed_pages += segment.pages
        if self.segments and self.segments[0].seq < ack_seq:
            head = self.segments[0]
            taken = ack_seq - head.seq
            head.seq = ack_seq
            head.length -= taken
            partial_pages = min(head.pages, taken // PAGE_BYTES)
            head.pages -= partial_pages
            freed_pages += partial_pages
        if freed_skbs:
            items.extend(self.tables.clean_rtx(freed_skbs))
        if freed_pages:
            # Sender payload pages are allocated on the app core's node.
            items.extend(
                self.host.allocator.free(
                    core.key, core.numa_node, freed_pages, self.app_core.numa_node
                )
            )
        if not self.segments:
            self._cancel_rto()

    def _wake_writer_if_space(self, waker_core: "Core") -> None:
        if self._writer is None:
            return
        threshold = max(self.gso_size, self.sndbuf_bytes // 3)
        if self._sndbuf_free() < threshold:
            return
        state = self._writer
        self._writer = None
        charge_wakeup(waker_core)
        self._sendmsg_chunk(state)

    def _update_rtt(self, rtt_ns: int) -> None:
        if self.srtt_ns == 0:
            self.srtt_ns = float(rtt_ns)
            self.rttvar_ns = rtt_ns / 2
        else:
            err = rtt_ns - self.srtt_ns
            self.srtt_ns += err / 8
            self.rttvar_ns += (abs(err) - self.rttvar_ns) / 4

    # --- loss recovery (SACK scoreboard, §3.6) ------------------------------------------------

    #: Minimum spacing between scoreboard walks (dupacks arrive in bursts).
    SACK_WALK_SPACING_NS = 20_000
    #: Maximum segments retransmitted per scoreboard walk.
    SACK_RETX_BURST = 64

    def _retransmit_for_holes(
        self, info: AckInfo, core: "Core", deferred: List[Callable[[], None]]
    ) -> None:
        """Retransmit every receiver-reported hole not recently repaired.

        This is the SACK behaviour of the Linux stack: all holes are repaired
        within roughly one RTT, instead of one segment per RTT (NewReno). A
        RACK-style timer allows re-retransmission when a repair itself was
        lost.
        """
        now = self.engine.now
        holes = info.holes
        if not holes:
            if self.segments:
                holes = [(self.segments[0].seq, self.segments[0].end_seq)]
            else:
                return
        if now - self._last_sack_walk_ns < self.SACK_WALK_SPACING_NS:
            return
        self._last_sack_walk_ns = now

        rearm = max(int(self.srtt_ns), 100_000)
        to_retx: List[_Segment] = []
        hole_iter = iter(holes)
        hole = next(hole_iter, None)
        for segment in self.segments:
            if hole is None or len(to_retx) >= self.SACK_RETX_BURST:
                break
            while hole is not None and hole[1] <= segment.seq:
                hole = next(hole_iter, None)
            if hole is None:
                break
            if segment.end_seq <= hole[0]:
                continue
            if segment.seq < hole[1] and segment.end_seq > hole[0]:
                if segment.retx_ns < 0 or now - segment.retx_ns > rearm:
                    segment.retx_ns = now
                    to_retx.append(segment)
        if to_retx:
            deferred.append(lambda: self._retransmit_segments(to_retx, core))

    def _retransmit_segments(self, segments: List[_Segment], core: "Core") -> None:
        items: ChargeItems = []
        frames: List[Frame] = []
        for segment in segments:
            if segment.end_seq <= self.snd_una:
                continue  # acked in the meantime
            self.retransmits += 1
            self.retx_bytes += segment.length
            seg_items, nframes = self.tables.segmentation(
                segment.length, self.mss, self.opts.tso_gro
            )
            items.extend(seg_items)
            items.append(("__skb_clone", self.costs.skb_clone_cycles))
            items.append(("tcp_retransmit_skb", self.costs.tcp_retransmit_cycles))
            items.append(("__qdisc_run", self.costs.qdisc_per_skb))
            items.append(("mlx5e_xmit", self.costs.driver_tx_per_skb))
            frames.extend(
                self._build_data_frames(segment.seq, segment.length, nframes)
            )
        if not frames:
            return
        context = self._softirq_context(core)

        def done() -> None:
            self.host.nic.transmit(frames)
            self._arm_rto()

        core.submit_work(context, items, done, PRIORITY_SOFTIRQ)

    # --- timers ----------------------------------------------------------------------------------

    def _current_rto(self) -> int:
        if self.srtt_ns <= 0:
            base = 4 * TCP_MIN_RTO_NS
        else:
            base = int(self.srtt_ns + 4 * self.rttvar_ns)
        rto = max(TCP_MIN_RTO_NS, base) * self._rto_backoff
        return min(TCP_MAX_RTO_NS, rto)

    def _arm_rto(self) -> None:
        """Move the retransmission deadline to one RTO from now, or clear
        it when nothing is outstanding. The engine is touched only when no
        fire is pending by the new deadline; a later pending fire is
        cancelled and replaced."""
        if not self.segments:
            self._rto_deadline = None
            return
        deadline = self.engine.now + self._current_rto()
        self._rto_deadline = deadline
        event = self._rto_event
        if event is not None:
            if event.time <= deadline:
                return
            event.cancel()
        self._rto_event = self.engine.schedule_at(deadline, self._rto_fire)

    def _cancel_rto(self) -> None:
        self._rto_deadline = None

    def _rto_fire(self) -> None:
        self._rto_event = None
        deadline = self._rto_deadline
        if deadline is None:
            return
        if deadline > self.engine.now:
            self._rto_event = self.engine.schedule_at(deadline, self._rto_fire)
            return
        self._rto_deadline = None
        if not self.segments:
            return
        self.timeouts += 1
        self.cc.on_timeout(self.engine.now)
        self._rto_backoff = min(8, self._rto_backoff * 2)
        self._recovery_point = self.snd_nxt
        self._dupacks = 0
        head = self.segments[0]
        head.retx_ns = self.engine.now
        self._retransmit_segments([head], self.softirq_core)

    def _maybe_schedule_zero_window_probe(self) -> None:
        if (
            self.unsent_bytes <= 0
            or self.rwnd_bytes > 0
            or self.segments
            or self._probe_event is not None
        ):
            return
        self._probe_event = self.engine.schedule(ZERO_WINDOW_PROBE_NS, self._probe_fire)

    def _probe_fire(self) -> None:
        self._probe_event = None
        if self.unsent_bytes <= 0 or self.rwnd_bytes > 0:
            self.try_push(
                self.softirq_core,
                self._softirq_context(self.softirq_core),
                PRIORITY_SOFTIRQ,
            )
            return
        frame = Frame(self.flow_id, "probe", self.snd_una, 0, FRAME_OVERHEAD_BYTES)
        self.host.nic.transmit([frame])
        self._maybe_schedule_zero_window_probe_again()

    def _maybe_schedule_zero_window_probe_again(self) -> None:
        if self._probe_event is None and self.rwnd_bytes <= 0 and self.unsent_bytes > 0:
            self._probe_event = self.engine.schedule(
                ZERO_WINDOW_PROBE_NS, self._probe_fire
            )

    # =================================================================== RX ===

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
        items.append(("lock_sock", self._lock_cost(poll_core)))
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
            ready = [skb]
            ready.extend(self._pull_ooo(poll_core, items))
            ready_bytes = 0
            for piece in ready:
                ready_bytes += piece.payload_bytes
                self.rx_limbo_bytes += piece.payload_bytes
                deferred.append(lambda s=piece: self._deliver_to_socket(s, poll_core))
            self._segs_since_ack += len(ready)
            self._bytes_since_ack += ready_bytes
            # Linux ACKs at least every 2 MSS of new data (quickack rule);
            # post-GRO skbs carry many MSS, so in practice this is one ACK
            # per merged skb.
            if self._bytes_since_ack >= self.tcp_cfg.ack_every_n_segments * self.mss:
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
        if waiter is not None and self.socket.available() >= waiter.min_bytes:
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
        if dup:
            self.dup_acks_sent += 1
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
            self.tcp_cfg.delayed_ack_timeout_ns, self._delack_fire
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
            self._softirq_context(core),
            items,
            lambda: self.host.nic.transmit(ack_frames),
            PRIORITY_SOFTIRQ,
        )

    # --- application receive ------------------------------------------------------------

    def recv_available(self) -> int:
        return self.socket.available()

    def do_recv(self, thread, max_bytes: int, on_complete: Callable[[int], None]) -> None:
        """Drain up to ``max_bytes`` from the socket into userspace."""
        taken, portions = self.socket.drain(max_bytes)
        if taken <= 0:
            on_complete(0)
            return
        self.app_bytes_read += taken
        now = self.engine.now
        tables = self.tables
        items: ChargeItems = [
            tables.syscall_item,
            ("lock_sock", self._lock_cost(self.app_core)),
        ]
        hit_bytes = 0
        miss_bytes = 0
        remote_bytes = 0  # payload living on a different NUMA node than the app
        freed_pages: dict = {}
        app_node = self.app_core.numa_node
        trace = self.trace
        # The three receive stages open together; before the window the
        # skb stamps are still consumed below, but nothing is recorded.
        rx_stages = trace is not None and trace.stages["e2e"].recording
        if rx_stages:
            stages = trace.stages
            softirq_record = stages["rx_softirq"].record
            sockq_record = stages["rx_sockq"].record
            e2e_record = stages["e2e"].record
        for skb, chunk, fully in portions:
            h, m = self._consume_regions(skb, chunk)
            hit_bytes += h
            miss_bytes += m
            if skb.page_node != app_node:
                remote_bytes += chunk
            if skb.napi_ns is not None:
                self.host.metrics.record_copy_latency(self.host.name, now - skb.napi_ns)
                if rx_stages:
                    # All three receive stages are recorded at drain time so
                    # their counts stay equal and the totals telescope exactly
                    # (e2e = rx_softirq + rx_sockq) — the auditor's identity —
                    # even for an skb enqueued before the window opened.
                    softirq_record(skb.trace_ns - skb.napi_ns)
                    sockq_record(now - skb.trace_ns)
                    e2e_record(now - skb.napi_ns)
                skb.napi_ns = None  # count each skb's latency once
            if fully:
                items.extend(tables.skb_free_pair)
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
        self.host.metrics.record_receiver_copy(self.host.name, hit_bytes, miss_bytes)

        for page_node, npages in freed_pages.items():
            items.extend(
                self.host.allocator.free(
                    self.app_core.key, self.app_core.numa_node, npages, page_node
                )
            )

        update_frames: List[Frame] = []
        window = self.socket.advertised_window()
        if self._advertised_free <= 2 * self.mss and window >= max(
            4 * self.mss, self.socket.rx_buffer_bytes // 16
        ):
            self._emit_ack(items, update_frames, dup=False)

        self._delivered_since_autotune += taken

        def done() -> None:
            if trace is not None:
                # Copy start -> data visible (the recv job's charged cycles).
                trace.stage("rx_copy").record(self.engine.now - now)
            self.host.metrics.record_delivered(self.host.name, self.flow_id, taken)
            if update_frames:
                self.host.nic.transmit(update_frames)
            on_complete(taken)

        self.app_core.submit_work(thread, items, done, PRIORITY_APP)

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

        Touches only this endpoint's counter and socket buffer and schedules
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
                    2 * buffer, self.tcp_cfg.autotune_max_bytes
                )

    # --- inspection ---------------------------------------------------------------------------------

    def inflight_bytes(self) -> int:
        return self.snd_nxt - self.snd_una

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<TcpEndpoint flow={self.flow_id} host={self.host.name} "
            f"core={self.app_core.core_id}>"
        )


class AutotuneClock:
    """One periodic DRS clock shared by a host's autotuned endpoints.

    Linux has no per-socket DRS timer (``tcp_rcv_space_adjust`` runs inside
    ``recvmsg``); here DRS runs every :data:`AUTOTUNE_PERIOD_NS`. One clock
    fires for all endpoints registered at the instant it was created, so the
    engine carries one timer per host rather than one per endpoint, and
    endpoints that never deliver a byte (sender halves) cost no events.
    Each update touches only its own endpoint and schedules nothing, so
    running them together in registration order is byte-identical to
    per-endpoint timers firing at the same instant.
    """

    __slots__ = ("engine", "endpoints")

    def __init__(self, engine) -> None:
        self.engine = engine
        self.endpoints: List[TcpEndpoint] = []
        engine.schedule(AUTOTUNE_PERIOD_NS, self._tick)

    def register(self, endpoint: TcpEndpoint) -> None:
        self.endpoints.append(endpoint)

    def _tick(self) -> None:
        for endpoint in self.endpoints:
            if endpoint._delivered_since_autotune:
                endpoint._autotune_tick()
        self.engine.schedule(AUTOTUNE_PERIOD_NS, self._tick)
