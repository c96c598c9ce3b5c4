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
from typing import List, Tuple

from ..constants import MAX_GSO_SIZE
from ..costs.model import CostModel
from .skb import Skb

ChargeItems = List[Tuple[str, float]]

#: Maximum number of flows GRO holds concurrently: 8 hash buckets times
#: MAX_GRO_SKBS (8) entries per bucket in kernel 5.4.
GRO_MAX_HELD_FLOWS = 64


class GroEngine:
    """Per-Rx-queue GRO state."""

    def __init__(
        self,
        costs: CostModel,
        enabled: bool,
        max_merged_bytes: int = MAX_GSO_SIZE,
        max_held_flows: int = GRO_MAX_HELD_FLOWS,
    ) -> None:
        self.costs = costs
        self.tables = costs.tables()
        self.enabled = enabled
        self.max_merged_bytes = max_merged_bytes
        self.max_held_flows = max_held_flows
        self._held: "OrderedDict[int, Skb]" = OrderedDict()
        # shared immutable charge batches for the two steady-state outcomes
        # (merge succeeded / new flow held, nothing flushed) — identical
        # content and order to the lists the general path builds
        tables = self.tables
        self._merge_items: Tuple = (tables.gro_receive_item,) + tables.gro_merge_pair
        self._recv_only_items: Tuple = (tables.gro_receive_item,)
        # statistics
        self.frames_in = 0
        self.skbs_out = 0
        self.merges = 0

    def receive(self, skb: Skb) -> Tuple[ChargeItems, List[Skb]]:
        """Feed one frame-skb into GRO.

        Returns CPU charge items plus any skbs flushed to the stack as a
        consequence (completed merges evicted by this frame).
        """
        self.frames_in += 1
        if not self.enabled:
            self.skbs_out += 1
            return (), [skb]

        held_map = self._held
        flow_id = skb.flow_id
        held = held_map.get(flow_id)
        if held is not None:
            payload = skb.payload_bytes
            if (
                held.payload_bytes + payload <= self.max_merged_bytes
                and held.seq + held.payload_bytes == skb.seq
                and held.page_node == skb.page_node
            ):
                held.payload_bytes += payload
                held.nframes += skb.nframes
                held.pages += skb.pages
                held.regions.extend(skb.regions)
                held.ecn = held.ecn or skb.ecn
                if len(held_map) > 1:  # moving the only entry is a no-op
                    held_map.move_to_end(flow_id)
                self.merges += 1
                # the merged-in skb struct is released
                return self._merge_items, ()
            # cannot merge: flush what we held for this flow
            del held_map[flow_id]
            flushed = [held]
        else:
            flushed = []

        held_map[flow_id] = skb
        held_map.move_to_end(flow_id)
        if len(held_map) > self.max_held_flows:
            _, evicted = held_map.popitem(last=False)
            flushed.append(evicted)
        if not flushed:
            return self._recv_only_items, ()
        self.skbs_out += len(flushed)
        return (
            (self.tables.gro_receive_item, self.tables.gro_flush(len(flushed))),
            flushed,
        )

    def receive_run(
        self,
        records,
        start: int,
        end: int,
        receivers,
        items: ChargeItems,
        frame_to_skb,
        deliver,
    ) -> None:
        """Feed a run of consecutive data records (``records[start:end]``).

        Per-record semantics are exactly :meth:`receive` on each record's
        skb — records whose flow has no receiver half here are skipped (stray
        frames of a torn-down flow), charge items land on ``items`` in the
        same order, and every flushed skb is handed to ``deliver``
        immediately after its flush charge. The common merge outcome folds
        the raw frame record straight into the held skb, so ``frame_to_skb``
        builds an skb only when one must be held or passed through.
        Batching hoists the per-frame attribute/method lookups out of the
        hottest loop in the simulator; the state machine must stay in
        lockstep with :meth:`receive`.
        """
        if not self.enabled:
            frames = 0
            receivers_get = receivers.get
            for i in range(start, end):
                record = records[i]
                if receivers_get(record.frame.flow_id) is None:
                    continue
                frames += 1
                deliver(frame_to_skb(record))
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
            held_map[flow_id] = frame_to_skb(record)
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

    def held_flows(self) -> int:
        return len(self._held)
