"""NAPI: IRQ-driven polling of NIC Rx queues (§2.1).

On the first frame after idle, the NIC raises an IRQ; the driver then busy
polls the queue in softirq context — up to ``netdev_budget`` frames per poll —
allocating an skb per completion, feeding GRO, and handing merged skbs to
TCP/IP processing *on the same core* (the RSS/aRFS inline model). Descriptors
are replenished from the page allocator during the poll. While frames remain
pending, polling continues without further IRQs.

Softirq jobs run at higher priority than application jobs on the same core,
so heavy receive traffic delays the application's data copies — the coupling
behind the paper's host-latency/BDP findings (§3.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Tuple

from ..constants import (
    IRQ_COALESCE_FRAMES,
    IRQ_COALESCE_NS,
    IRQ_IDLE_RESET_NS,
    NAPI_BUDGET_FRAMES,
)
from ..hardware.cpu import PRIORITY_SOFTIRQ
from ..hardware.link import Frame
from .gro import GroEngine
from .skb import Skb

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.nic import RxFrameRecord, RxQueue
    from .host import Host

ChargeItems = List[Tuple[str, float]]


class NapiContext:
    """Per-Rx-queue NAPI instance."""

    def __init__(self, host: "Host", rxq: "RxQueue") -> None:
        self.host = host
        self.rxq = rxq
        self.costs = host.costs
        self.tables = host.costs.tables()
        opts = host.config.opts
        # GRO runs in software unless LRO already merged in the NIC.
        self.gro = GroEngine(self.costs, enabled=opts.tso_gro and not opts.lro)
        self.scheduled = False
        self.polls = 0
        self.irqs = 0
        self._last_activity_ns = -IRQ_IDLE_RESET_NS
        rxq.napi = self
        # Plain attribute, not a property: ``irq_core`` is fixed at RxQueue
        # construction and ``napi.core`` is read on every poll/notify.
        self.core = rxq.irq_core
        costs = self.costs
        # Charge batches and callbacks built once per context, not per IRQ
        # or poll (jobs hold their items by reference and never mutate them).
        self._irq_items = (("handle_irq_event", costs.irq_cycles),)
        self._repoll_items = (("net_rx_action", costs.napi_poll_overhead * 0.3),)
        self._rps_item = ("net_rx_action", costs.rps_backlog_enqueue_cycles)
        self._raise_irq_cb = self._raise_irq
        self._poll_cb = self._poll
        self._deliver_skb_cb = self._deliver_skb
        self._done_cb = self._done
        # The poll in flight: its instant and charge list, and what its
        # completion (``_done``) hands on. A context polls again only after
        # its ``_done`` has run (``scheduled`` stays set until then), so one
        # set of containers serves every poll; ``_done`` empties them.
        self._now = 0
        self._items: ChargeItems = []
        self._deferred: List[Callable[[], None]] = []
        self._ack_frames: List[Frame] = []
        #: skbs whose TCP processing belongs on another core (software
        #: RFS), per target core, forwarded as one IPI'd job at poll end.
        self._remote: dict = {}

    def notify(self) -> None:
        """The NIC signals new completions.

        Models adaptive interrupt moderation (Mellanox adaptive-rx): after an
        idle period the IRQ fires immediately (latency mode); under steady
        traffic it is held back until a few frames accumulate or the
        coalescing timer expires (throughput mode).
        """
        if self.scheduled:
            return
        self.scheduled = True
        engine = self.host.engine
        recently_active = engine.now - self._last_activity_ns < IRQ_IDLE_RESET_NS
        if recently_active and len(self.rxq.pending) < IRQ_COALESCE_FRAMES:
            engine.post(IRQ_COALESCE_NS, self._raise_irq_cb)
        else:
            self._raise_irq()

    def _raise_irq(self) -> None:
        self.irqs += 1
        self._last_activity_ns = self.host.engine.now
        core = self.core
        core.submit_work(
            core.softirq_context, self._irq_items, self._poll_cb, PRIORITY_SOFTIRQ
        )

    def _take_batch(self) -> Tuple[List["RxFrameRecord"], int]:
        rxq = self.rxq
        pending = rxq.pending
        frames = rxq.pending_frames
        if frames <= NAPI_BUDGET_FRAMES:
            # Whole queue fits in the budget (the common case): take it in
            # one bulk copy instead of a per-record drain loop.
            if not frames:
                return [], 0
            batch = list(pending)
            pending.clear()
            rxq.pending_frames = 0
            return batch, frames
        batch: List["RxFrameRecord"] = []
        frames = 0
        while pending and frames < NAPI_BUDGET_FRAMES:
            record = pending.popleft()
            batch.append(record)
            frames += record.nframes
        rxq.pending_frames -= frames
        return batch, frames

    def _poll(self) -> None:
        batch, nframes = self._take_batch()
        if not batch:
            self.scheduled = False
            return
        self.polls += 1
        core = self.core
        host = self.host
        tables = self.tables
        now = host.engine.now
        self._last_activity_ns = now
        self._now = now

        total_pages = 0
        for record in batch:
            total_pages += record.pages
        items: ChargeItems = list(tables.napi_head(nframes, len(batch)))
        self._items = items
        # A disabled IOMMU charges nothing, so it is not asked.
        iommu = host.iommu if host.iommu.enabled else None
        if iommu is not None:
            items.extend(iommu.unmap_charges(total_pages))
        # Replenish the ring: new pages + fresh IOMMU mappings for them.
        self.rxq.replenish(nframes)
        items.extend(host.allocator.alloc(core.key, total_pages))
        if iommu is not None:
            items.extend(iommu.map_charges(total_pages))

        receivers = host.receivers
        kind_data = Frame.KIND_DATA
        kind_ack = Frame.KIND_ACK
        trace = host.trace
        if trace is not None and trace.stages["rx_ring"].recording:
            # One rx_ring sample per data completion whose flow has a
            # receiver here: DMA arrival (the record's stamped arrival time)
            # to this poll instant. Receivers are never removed, so this is
            # exactly the set of records the loop below hands to GRO.
            trace.stages["rx_ring"].record_many([
                now - record.arrival_ns
                for record in batch
                if record.frame.kind == kind_data
                and record.frame.flow_id in receivers
            ])

        i = 0
        n = len(batch)
        while i < n:
            frame = batch[i].frame
            kind = frame.kind
            if kind == kind_data:
                # Consecutive data records go to GRO as one run (per-record
                # semantics, per-frame lookups hoisted).
                j = i + 1
                while j < n and batch[j].frame.kind == kind_data:
                    j += 1
                self.gro.receive_run(
                    batch, i, j, receivers, items, self._deliver_skb_cb
                )
                i = j
                continue
            # ACKs go to the flow's sender half, probes to its receiver
            # half; a frame with no half here is a stray.
            if kind == kind_ack:
                sender = host.senders.get(frame.flow_id)
                if sender is not None:
                    items.append(tables.skb_free_item)
                    sender.on_ack_frame(frame.ack, core, items, self._deferred)
            elif kind == "probe":
                receiver = receivers.get(frame.flow_id)
                if receiver is not None:
                    receiver.on_probe_frame(items, self._ack_frames)
            i += 1

        flush_items, flushed = self.gro.flush_all()
        if flushed:
            items.extend(flush_items)
            for done_skb in flushed:
                self._deliver_skb(done_skb)

        core.submit_work(core.softirq_context, items, self._done_cb, PRIORITY_SOFTIRQ)

    def _done(self) -> None:
        """The poll job completed: run its deferred effects, send its ACKs,
        forward remote skbs, then repoll or go idle."""
        deferred = self._deferred
        if deferred:
            for action in deferred:
                action()
            deferred.clear()
        ack_frames = self._ack_frames
        if ack_frames:
            self.host.nic.transmit(ack_frames)
            ack_frames.clear()
        remote = self._remote
        if remote:
            for target_core, pairs in remote.items():
                self._forward_to_core(target_core, pairs)
            remote.clear()
        if self.rxq.pending:
            # Budget exhausted with work left: repoll without a new IRQ.
            core = self.core
            core.submit_work(
                core.softirq_context, self._repoll_items, self._poll_cb,
                PRIORITY_SOFTIRQ,
            )
        else:
            self.scheduled = False

    def _deliver_skb(self, skb: Skb) -> None:
        """Hand one post-GRO skb of the poll in flight to its receiver."""
        skb.napi_ns = self._now
        host = self.host
        receiver = host.receivers.get(skb.flow_id)
        if receiver is None:
            return
        host.metrics.record_rx_skb(host.name, skb.payload_bytes)
        core = self.core
        if receiver.softirq_core is not core:
            # Software steering (RPS/RFS): enqueue onto the target core's
            # backlog and IPI it; the driver-side cost lands here.
            self._items.append(self._rps_item)
            self._remote.setdefault(receiver.softirq_core, []).append((receiver, skb))
            return
        receiver.on_data_skb(skb, core, self._items, self._deferred, self._ack_frames)

    def _forward_to_core(self, target_core, pairs) -> None:
        """Run the TCP half of a poll batch on the steering target core."""
        items: ChargeItems = [("handle_irq_event", self.costs.irq_cycles * 0.5)]
        deferred: List[Callable[[], None]] = []
        ack_frames: List[Frame] = []
        for receiver, skb in pairs:
            receiver.on_data_skb(skb, target_core, items, deferred, ack_frames)

        def done() -> None:
            for action in deferred:
                action()
            if ack_frames:
                self.host.nic.transmit(ack_frames)

        target_core.submit_work(
            target_core.softirq_context, items, done, PRIORITY_SOFTIRQ
        )
