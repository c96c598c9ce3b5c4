"""Generic Receive Offload (§2.1).

GRO runs in the NAPI softirq and merges in-sequence frames of the same flow
into larger skbs (up to 64KB) before TCP/IP processing, amortizing per-skb
protocol costs. Merging breaks when:

* the merged skb would exceed 64KB,
* a frame is out of sequence for its flow,
* too many distinct flows are held at once (the kernel's ``gro_list`` is
  small — interleaved flows evict each other), or
* the NAPI poll ends (everything is flushed to the stack).

The last two are the mechanism behind the paper's §3.5 finding: with many
concurrent flows, each flow contributes few frames per poll, so post-GRO skbs
collapse towards single frames and per-byte processing overheads rise.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, List, Tuple

from ..constants import MAX_GSO_SIZE
from ..costs.model import CostModel
from .skb import Skb

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.nic import RxFrameRecord

ChargeItems = List[Tuple[str, float]]

#: Maximum number of flows GRO holds concurrently: 8 hash buckets times
#: MAX_GRO_SKBS (8) entries per bucket in kernel 5.4.
GRO_MAX_HELD_FLOWS = 64


def frame_to_skb(record: "RxFrameRecord") -> Skb:
    """Build the skb for one received wire frame."""
    # Fields are assigned directly (bypassing Skb.__init__): this runs
    # once per received wire frame and is the hottest allocation site.
    frame = record.frame
    payload = frame.payload_bytes
    # trace_ns is deliberately left unset: it is only read under
    # config.trace, and that path stamps it before any read.
    skb = Skb.__new__(Skb)  # repro-lint: allow[slots-incomplete-new] trace_ns lazily stamped on the trace path
    skb.flow_id = frame.flow_id
    skb.seq = frame.seq
    skb.payload_bytes = payload
    skb.nframes = record.nframes
    skb.pages = record.pages
    skb.page_node = record.page_node
    skb.regions = [(record.region_id, payload)]
    skb.napi_ns = record.arrival_ns
    skb.is_retransmit = False
    skb.ecn = frame.ecn_marked
    return skb


class GroEngine:
    """Per-Rx-queue GRO state."""

    def __init__(
        self,
        costs: CostModel,
        enabled: bool,
        max_merged_bytes: int = MAX_GSO_SIZE,
        max_held_flows: int = GRO_MAX_HELD_FLOWS,
    ) -> None:
        self.tables = costs.tables()
        self.enabled = enabled
        self.max_merged_bytes = max_merged_bytes
        self.max_held_flows = max_held_flows
        self._held: "OrderedDict[int, Skb]" = OrderedDict()
        # shared immutable charge batches for the two steady-state outcomes
        # (merge succeeded / new flow held, nothing flushed)
        tables = self.tables
        self._merge_items: Tuple = (tables.gro_receive_item,) + tables.gro_merge_pair
        self._recv_only_items: Tuple = (tables.gro_receive_item,)
        # statistics
        self.frames_in = 0
        self.skbs_out = 0
        self.merges = 0

    def receive_run(
        self,
        records,
        start: int,
        end: int,
        receivers,
        items: ChargeItems,
        deliver,
    ) -> None:
        """Feed a run of consecutive data records (``records[start:end]``).

        Records whose flow has no receiver half here are skipped (stray
        frames of a torn-down flow). Each record either merges into the skb
        held for its flow or is held itself, flushing the held skb it could
        not merge with and, when too many flows are held, evicting the least
        recently used one. Charge items land on ``items`` in record order,
        and every flushed skb is handed to ``deliver`` immediately after its
        flush charge. The common merge outcome folds the raw frame record
        straight into the held skb, so :func:`frame_to_skb` builds an skb
        only when one must be held or passed through. Batching hoists the
        per-frame attribute/method lookups out of the hottest loop in the
        simulator.
        """
        to_skb = frame_to_skb
        if not self.enabled:
            frames = 0
            receivers_get = receivers.get
            for i in range(start, end):
                record = records[i]
                if receivers_get(record.frame.flow_id) is None:
                    continue
                frames += 1
                deliver(to_skb(record))
            self.frames_in += frames
            self.skbs_out += frames
            return
        held_map = self._held
        held_get = held_map.get
        move_to_end = held_map.move_to_end
        popitem = held_map.popitem
        receivers_get = receivers.get
        max_bytes = self.max_merged_bytes
        max_held = self.max_held_flows
        merge_items = self._merge_items
        recv_only_items = self._recv_only_items
        gro_receive_item = self.tables.gro_receive_item
        gro_flush = self.tables.gro_flush
        items_extend = items.extend
        items_append = items.append
        frames_in = 0
        merges = 0
        skbs_out = 0
        for i in range(start, end):
            record = records[i]
            frame = record.frame
            flow_id = frame.flow_id
            if receivers_get(flow_id) is None:
                continue
            frames_in += 1
            held = held_get(flow_id)
            if held is not None:
                payload = frame.payload_bytes
                held_payload = held.payload_bytes
                if (
                    held_payload + payload <= max_bytes
                    and held.seq + held_payload == frame.seq
                    and held.page_node == record.page_node
                ):
                    held.payload_bytes = held_payload + payload
                    held.nframes += record.nframes
                    held.pages += record.pages
                    held.regions.append((record.region_id, payload))
                    if frame.ecn_marked:
                        held.ecn = True
                    if len(held_map) > 1:  # moving the only entry is a no-op
                        move_to_end(flow_id)
                    merges += 1
                    items_extend(merge_items)
                    continue
                del held_map[flow_id]
                flushed_held = held
            else:
                flushed_held = None
            # flow_id is absent either way, so plain insertion already lands
            # the fresh skb at the (most-recent) end of the held map.
            held_map[flow_id] = to_skb(record)
            evicted = None
            if len(held_map) > max_held:
                _, evicted = popitem(last=False)
            if flushed_held is None and evicted is None:
                items_extend(recv_only_items)
                continue
            nflushed = (flushed_held is not None) + (evicted is not None)
            skbs_out += nflushed
            items_append(gro_receive_item)
            items_append(gro_flush(nflushed))
            if flushed_held is not None:
                deliver(flushed_held)
            if evicted is not None:
                deliver(evicted)
        self.frames_in += frames_in
        self.merges += merges
        self.skbs_out += skbs_out

    def flush_all(self) -> Tuple[ChargeItems, List[Skb]]:
        """End of NAPI poll: push everything held up the stack."""
        if not self._held:
            return (), ()
        flushed = list(self._held.values())
        self._held.clear()
        self.skbs_out += len(flushed)
        return (self.tables.gro_flush(len(flushed)),), flushed
