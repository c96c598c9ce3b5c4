"""TCP sender: the transmit half of one connection on one host.

This implements §2.1's sender-side path: ``sendmsg`` copies user data into
kernel pages (cost depends on sender L3 warmth), TCP/IP processing emits
GSO-sized skbs when window space allows and the NIC segments them (TSO); with
TSO off, TCP emits MSS-sized skbs, as the paper's "No Opt." stack disables
GSO too (§2.1 footnote 5). ACK processing — including SACK loss recovery,
the retransmission deadline and the zero-window probe — runs in softirq
context on whatever core the flow's ACKs are steered to.

A host holds a :class:`TcpSender` only for the flows that send from it: a
stream's sender host, or both ends of an RPC connection (where ``receiver``
points at the connection's receive half on the same host).

Convention used throughout: TCP *state* mutates when work is submitted to a
core; externally visible *effects* (frames on the wire, thread wakeups)
happen when the corresponding CPU job completes.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Callable, Deque, List, Optional, Tuple

from ...constants import (
    DEFAULT_TCP_TX_BUFFER_BYTES,
    FRAME_OVERHEAD_BYTES,
    MAX_GSO_SIZE,
    PAGE_BYTES,
    TCP_INIT_CWND_SEGMENTS,
    TCP_MIN_RTO_NS,
)
from ...hardware.cpu import PRIORITY_APP, PRIORITY_SOFTIRQ
from ...hardware.link import Frame
from ...units import msec
from ..sched import charge_wakeup
from .ack import AckInfo
from .cc import make_congestion_controller

if TYPE_CHECKING:  # pragma: no cover
    from ...hardware.cpu import Core
    from ..host import Host
    from .receiver import TcpReceiver

ChargeItems = List[Tuple[str, float]]

#: Maximum bytes emitted by one transmit job (tcp_write_xmit quantum).
TX_BURST_BYTES = 256 * 1024
#: Maximum bytes copied user->kernel per sendmsg job.
SENDMSG_CHUNK_BYTES = 256 * 1024
#: Upper bound on the retransmission timer.
TCP_MAX_RTO_NS = msec(200)
#: Zero-window probe interval.
ZERO_WINDOW_PROBE_NS = msec(2)


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


class TcpSender:
    """The transmit half of one TCP connection on one host."""

    __slots__ = (
        "host", "flow_id", "app_core", "costs", "tables", "engine", "opts",
        "trace", "_tx_stamps", "mss", "gso_size", "cc", "softirq_core",
        "receiver", "snd_una", "snd_nxt", "unsent_bytes", "app_bytes_written",
        "sndbuf_bytes", "rwnd_bytes", "segments", "_send_thread",
        "_send_left", "_send_total", "_send_on_complete", "_send_first",
        "_writer_blocked", "_sendmsg_done_cb",
        "_tx_active", "_dupacks", "_recovery_point", "_last_sack_walk_ns",
        "_rtt_sample", "srtt_ns", "rttvar_ns", "_rto_deadline", "_rto_event",
        "_rto_backoff", "_probe_event", "_pacer_event", "retransmits",
        "timeouts",
    )

    def __init__(self, host: "Host", flow_id: int, app_core: "Core") -> None:
        self.host = host
        self.flow_id = flow_id
        self.app_core = app_core
        self.costs = host.costs
        self.tables = host.costs.tables()
        self.engine = host.engine
        cfg = host.config
        self.opts = cfg.opts
        self.trace = host.trace
        #: FIFO of ``[bytes, write_stamp]`` entries feeding the tx_queue
        #: stage; ``None`` unless tracing (zero overhead when off).
        self._tx_stamps: Optional[Deque] = (
            deque() if self.trace is not None else None
        )

        self.mss = self.opts.mtu - 40  # IP + TCP headers live inside the MTU
        self.gso_size = MAX_GSO_SIZE if self.opts.tso_gro else self.mss
        self.cc = make_congestion_controller(
            cfg.tcp.congestion_control, self.mss, TCP_INIT_CWND_SEGMENTS
        )
        #: Core where this flow's softirq (NAPI/TCP) processing happens; the
        #: host sets it when it steers the flow.
        self.softirq_core: "Core" = app_core
        #: The same connection's receive half on this host (RPC), else None.
        self.receiver: Optional["TcpReceiver"] = None

        self.snd_una = 0
        self.snd_nxt = 0
        self.unsent_bytes = 0
        #: Total bytes the application has pushed into this socket. The
        #: conservation auditor holds ``app_bytes_written == unsent_bytes +
        #: snd_nxt`` at every instant.
        self.app_bytes_written = 0
        self.sndbuf_bytes = DEFAULT_TCP_TX_BUFFER_BYTES
        self.rwnd_bytes = 0  # set when the peer attaches
        self.segments: Deque[_Segment] = deque()
        # The sendmsg in flight (a connection has one writer thread, blocked
        # in the kernel until its sendmsg completes): its thread, bytes still
        # to copy, byte count, completion, and whether its syscall entry is
        # still to be charged.
        self._send_thread = None
        self._send_left = 0
        self._send_total = 0
        self._send_on_complete: Optional[Callable[[int], None]] = None
        self._send_first = False
        #: The writer is blocked on send-buffer space; the ACK path wakes it.
        self._writer_blocked = False
        self._sendmsg_done_cb = self._sendmsg_done
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

    # ------------------------------------------------------------------ setup

    def attach_peer(self, peer: "TcpReceiver") -> None:
        """Open the send window at the peer's advertised receive window
        (handshake abstracted)."""
        self.rwnd_bytes = peer.socket.advertised_window()

    def _lock_item(self) -> Tuple[str, float]:
        """Socket-lock charge: contended when app and softirq contexts run
        on different cores (the §3.1 no-aRFS lock overhead)."""
        if self.softirq_core is self.app_core:
            return self.tables.sock_lock_item
        return self.tables.sock_lock_contended_item

    # --------------------------------------------------------------- sendmsg

    def sendmsg(self, thread, nbytes: int, on_complete: Callable[[int], None]) -> None:
        """Application ``send()``: copy ``nbytes`` into the kernel and push."""
        if nbytes <= 0:
            raise ValueError("sendmsg needs a positive byte count")
        self._send_thread = thread
        self._send_left = nbytes
        self._send_total = nbytes
        self._send_on_complete = on_complete
        self._send_first = True
        self._sendmsg_chunk()

    def _sndbuf_free(self) -> int:
        used = (self.snd_nxt - self.snd_una) + self.unsent_bytes
        return max(0, self.sndbuf_bytes - used)

    def _sendmsg_chunk(self) -> None:
        chunk = min(self._send_left, self._sndbuf_free(), SENDMSG_CHUNK_BYTES)
        if chunk <= 0:
            # Blocked on send-buffer space; the ACK path wakes us.
            self._writer_blocked = True
            self._send_thread.block()
            return

        tables = self.tables
        host = self.host
        app_core = self.app_core
        if self._send_first:
            self._send_first = False
            items: ChargeItems = [tables.syscall_item, self._lock_item()]
        else:
            items = [self._lock_item()]

        miss_rate = host.cache.sender_miss_rate(app_core.numa_node)
        per_byte = tables.copy_per_byte(miss_rate)
        items.append(("copy_from_user", self.costs.copy_per_call + per_byte * chunk))
        host.metrics.record_sender_copy(
            host.name, int(chunk * (1 - miss_rate)), int(chunk * miss_rate)
        )

        items.extend(host.allocator.alloc(app_core.key, (chunk + PAGE_BYTES - 1) // PAGE_BYTES))
        gso_size = self.gso_size
        items.extend(tables.sendmsg_skbs((chunk + gso_size - 1) // gso_size))

        self._send_left -= chunk
        self.unsent_bytes += chunk
        self.app_bytes_written += chunk
        if self._tx_stamps is not None:
            # Stamp at submission: TCP state (and hence transmit eligibility)
            # mutates now; the copy job's cycles are charged separately.
            self._tx_stamps.append([chunk, self.engine.now])

        app_core.submit_work(self._send_thread, items, self._sendmsg_done_cb, PRIORITY_APP)

    def _sendmsg_done(self) -> None:
        """A sendmsg copy job completed: push, then copy on or complete."""
        self.try_push(self.app_core, self._send_thread, PRIORITY_APP)
        if self._send_left > 0:
            self._sendmsg_chunk()
        else:
            self._send_on_complete(self._send_total)

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
        if self.unsent_bytes <= 0:
            return  # nothing to send, and so no zero-window probe either
        burst = min(self.unsent_bytes, self._window_space(), TX_BURST_BYTES)
        if burst <= 0:
            self._maybe_schedule_zero_window_probe()
            return
        self._emit_burst(burst, core, context, priority)

    def _emit_burst(self, burst: int, core: "Core", context, priority: int) -> None:
        tables = self.tables
        gso_size = self.gso_size
        segments = self.segments
        items: ChargeItems = []
        frames: List[Frame] = []
        nskbs = 0
        emitted = 0
        seq = self.snd_nxt
        while emitted < burst:
            size = burst - emitted
            if size > gso_size:
                size = gso_size
            # direct slot assignment (bypassing __init__): one per skb sent
            segment = _Segment.__new__(_Segment)
            segment.seq = seq
            segment.length = size
            segment.pages = (size + PAGE_BYTES - 1) // PAGE_BYTES
            segment.retx_ns = -1
            segments.append(segment)
            self._append_data_frames(frames, seq, size)
            seq += size
            emitted += size
            nskbs += 1
        self.snd_nxt = seq
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
        iommu = self.host.iommu
        if iommu.enabled:  # a disabled IOMMU charges nothing
            pages = (emitted + PAGE_BYTES - 1) // PAGE_BYTES
            items.extend(iommu.map_charges(pages))
            items.extend(iommu.unmap_charges(pages))

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

    def _append_data_frames(self, frames: List[Frame], seq: int, size: int) -> None:
        """Append the MSS-sized wire frames of the ``size`` bytes from
        ``seq`` to ``frames``: the NIC's segmentation, which charges the
        host nothing."""
        append = frames.append
        mss = self.mss
        flow_id = self.flow_id
        kind_data = Frame.KIND_DATA
        offset = 0
        frame_new = Frame.__new__
        while offset < size:
            remaining = size - offset
            payload = mss if mss < remaining else remaining
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

    # --- pacing (BBR) -----------------------------------------------------------------

    def _pacer_push(self, core: "Core") -> None:
        """Emit one pacing quantum and schedule the next pacer firing."""
        if self._pacer_event is not None:
            return
        burst = min(self.unsent_bytes, self._window_space(), self.gso_size)
        if burst <= 0:
            self._maybe_schedule_zero_window_probe()
            return
        context = self.app_core.softirq_context
        self._emit_burst(burst, self.app_core, context, PRIORITY_SOFTIRQ)
        rate = self.cc.pacing_rate_bps()
        gap_ns = max(1000, int(burst * 8 * 1e9 / rate))
        self._pacer_event = self.engine.schedule(gap_ns, self._pacer_fire)

    def _pacer_fire(self) -> None:
        self._pacer_event = None
        if self.unsent_bytes <= 0:
            return
        # The fq pacer's hrtimer wakes the transmit path: scheduling overhead.
        context = self.app_core.softirq_context
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
            deferred.append(partial(self._after_ack, poll_core))
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
            deferred.append(partial(self._after_ack, poll_core))

    def _after_ack(self, poll_core: "Core") -> None:
        self._wake_writer_if_space(poll_core)
        self.try_push(poll_core, poll_core.softirq_context, PRIORITY_SOFTIRQ)

    def _clean_rtx_queue(self, ack_seq: int, core: "Core", items: ChargeItems) -> None:
        freed_skbs = 0
        freed_pages = 0
        segments = self.segments
        while segments:
            segment = segments[0]
            if segment.seq + segment.length > ack_seq:
                break
            segments.popleft()
            freed_skbs += 1
            freed_pages += segment.pages
        if segments and segments[0].seq < ack_seq:
            head = segments[0]
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
        if not segments:
            self._cancel_rto()

    def _wake_writer_if_space(self, waker_core: "Core") -> None:
        if not self._writer_blocked:
            return
        threshold = max(self.gso_size, self.sndbuf_bytes // 3)
        if self._sndbuf_free() < threshold:
            return
        self._writer_blocked = False
        charge_wakeup(waker_core)
        self._sendmsg_chunk()

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
            deferred.append(partial(self._retransmit_segments, to_retx, core))

    def _retransmit_segments(self, segments: List[_Segment], core: "Core") -> None:
        items: ChargeItems = []
        frames: List[Frame] = []
        for segment in segments:
            if segment.end_seq <= self.snd_una:
                continue  # acked in the meantime
            self.retransmits += 1
            items.append(("__skb_clone", self.costs.skb_clone_cycles))
            items.append(("tcp_retransmit_skb", self.costs.tcp_retransmit_cycles))
            items.append(("__qdisc_run", self.costs.qdisc_per_skb))
            items.append(("mlx5e_xmit", self.costs.driver_tx_per_skb))
            self._append_data_frames(frames, segment.seq, segment.length)
        if not frames:
            return
        context = core.softirq_context

        def done() -> None:
            self.host.nic.transmit(frames)
            self._arm_rto()

        core.submit_work(context, items, done, PRIORITY_SOFTIRQ)

    # --- timers ----------------------------------------------------------------------------------

    def _current_rto(self) -> int:
        """The RTO an arm would use now (``_arm_rto`` inlines this
        arithmetic: it runs on every ACK and transmit completion)."""
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
        srtt = self.srtt_ns
        if srtt <= 0:
            rto = 4 * TCP_MIN_RTO_NS
        else:
            rto = int(srtt + 4 * self.rttvar_ns)
            if rto < TCP_MIN_RTO_NS:
                rto = TCP_MIN_RTO_NS
        rto *= self._rto_backoff
        if rto > TCP_MAX_RTO_NS:
            rto = TCP_MAX_RTO_NS
        deadline = self.engine.now + rto
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
                self.softirq_core.softirq_context,
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

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<TcpSender flow={self.flow_id} host={self.host.name} "
            f"core={self.app_core.core_id}>"
        )
