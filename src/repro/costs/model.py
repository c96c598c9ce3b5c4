"""Per-operation CPU cycle costs.

Every constant is a *cost of one mechanism execution* (one skb through the TCP
layer, one page allocation, one context switch, ...). All of the paper's
trends must come from how often the mechanisms run and in which cache/NUMA
state — not from per-scenario tweaks. See ``calibration.py`` for how default
values are derived from the paper's own measurements.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Tuple


@dataclass
class CostModel:
    """Cycle costs for each simulated kernel operation (3.4GHz core)."""

    # --- data copy (cycles per byte) --------------------------------------------
    copy_per_byte_l3_hit: float = 0.12
    copy_per_byte_l3_miss: float = 0.42
    copy_per_byte_remote_numa_extra: float = 0.10
    copy_per_call: float = 300.0

    # --- syscall / misc ------------------------------------------------------------
    syscall_cycles: float = 500.0
    irq_cycles: float = 700.0

    # --- skb management ---------------------------------------------------------------
    skb_alloc_cycles: float = 380.0      # kmem_cache_alloc_node (memory)
    skb_free_cycles: float = 230.0       # kmem_cache_free (memory)
    skb_build_cycles: float = 180.0      # __build_skb (skb mgmt)
    skb_put_cycles: float = 60.0         # per-frag attach (skb mgmt)
    skb_release_cycles: float = 150.0    # skb_release_data (skb mgmt)
    skb_clone_cycles: float = 180.0      # retransmit clone (skb mgmt)

    # --- TCP/IP processing ---------------------------------------------------------------
    tcp_sendmsg_per_skb: float = 650.0
    tcp_write_xmit_per_skb: float = 450.0
    ip_tx_per_skb: float = 280.0
    tcp_rcv_per_skb: float = 850.0
    ip_rx_per_skb: float = 250.0
    tcp_ack_tx_cycles: float = 550.0     # build + send one ACK
    tcp_ack_rx_cycles: float = 600.0     # process one incoming ACK
    tcp_dupack_rx_extra: float = 250.0   # SACK/dupack bookkeeping on top
    tcp_ofo_queue_cycles: float = 800.0  # out-of-order segment queuing
    tcp_retransmit_cycles: float = 900.0
    tcp_clean_rtx_per_skb: float = 120.0  # freeing acked skbs off the rtx queue

    # --- netdevice subsystem / driver ----------------------------------------------------
    napi_poll_overhead: float = 800.0    # per softirq poll invocation
    driver_rx_per_frame: float = 200.0   # mlx5e_poll_rx_cq per completion
    gro_receive_per_frame: float = 340.0 # merge attempt per frame
    gro_flush_per_skb: float = 160.0
    qdisc_per_skb: float = 340.0
    driver_tx_per_skb: float = 300.0
    rps_backlog_enqueue_cycles: float = 250.0  # software-steering IPI + backlog

    # --- memory management ------------------------------------------------------------------
    page_alloc_pcp_cycles: float = 80.0       # from per-core pageset
    page_alloc_global_cycles: float = 180.0   # per page via zone free list...
    page_alloc_global_batch_cycles: float = 800.0  # ...plus per rmqueue_bulk refill
    page_free_local_cycles: float = 75.0
    page_free_remote_cycles: float = 180.0    # freeing to remote NUMA node
    page_free_global_cycles: float = 140.0    # per page flushed on pcp overflow...
    page_free_global_batch_cycles: float = 800.0   # ...plus per free_pcppages_bulk call
    iommu_map_per_page: float = 330.0
    iommu_unmap_per_page: float = 370.0

    # --- locks ----------------------------------------------------------------------------------
    sock_lock_uncontended: float = 90.0
    sock_lock_contended: float = 900.0

    # --- scheduling --------------------------------------------------------------------------------
    context_switch_cycles: float = 2200.0
    wakeup_cycles: float = 1400.0
    pacer_timer_cycles: float = 1100.0   # BBR/fq pacing hrtimer fire + requeue

    def replace(self, **kwargs: float) -> "CostModel":
        """Return a copy with some constants overridden."""
        return dataclasses.replace(self, **kwargs)

    def validate(self) -> None:
        """Sanity-check that all costs are finite and non-negative."""
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"cost {field.name} must be finite and >= 0, got {value}"
                )

    def tables(self) -> "CostTables":
        """Precomputed charge tables for this model (built once, cached).

        The cache lives outside the dataclass fields, so ``replace()`` and
        ``validate()`` are unaffected and a modified copy gets fresh tables.
        """
        tables = self.__dict__.get("_tables")
        if tables is None:
            tables = self.__dict__["_tables"] = CostTables(self)
        return tables


#: A reusable batch of charge items: ``(op, cycles)`` pairs.
ChargeTuple = Tuple[Tuple[str, float], ...]


class CostTables:
    """Memoized per-(operation, batch-size) charge-item tuples.

    The hot producers (TCP halves, GRO, NAPI, NIC) previously rebuilt the
    same small ``(op, cycles)`` lists — recomputing the same float products —
    for every skb. These tables compute each distinct batch exactly once and
    hand out shared immutable tuples. Every cached value is produced by the
    *same arithmetic on the same inputs* as the inline code it
    replaces, so charges are bit-identical and the golden digests hold.

    Callers must only ``extend``/iterate the returned tuples, never mutate.
    """

    def __init__(self, costs: CostModel) -> None:
        self.costs = costs
        # --- fixed singletons / pairs (receive path) ----------------------
        self.rx_skb_prefix: ChargeTuple = (
            ("ip_rcv", costs.ip_rx_per_skb),
            ("tcp_rcv_established", costs.tcp_rcv_per_skb),
        )
        self.ack_tx_pair: ChargeTuple = (
            ("tcp_send_ack", costs.tcp_ack_tx_cycles),
            ("dev_queue_xmit", costs.qdisc_per_skb * 0.3),
        )
        self.ack_rx_item = ("tcp_ack", costs.tcp_ack_rx_cycles)
        self.dupack_extra_item = ("tcp_ack", costs.tcp_dupack_rx_extra)
        self.ofo_queue_item = ("tcp_data_queue_ofo", costs.tcp_ofo_queue_cycles)
        self.skb_free_pair: ChargeTuple = (
            ("skb_release_data", costs.skb_release_cycles),
            ("kmem_cache_free", costs.skb_free_cycles),
        )
        self.skb_free_item = ("kmem_cache_free", costs.skb_free_cycles)
        self.syscall_item = ("do_syscall_64", costs.syscall_cycles)
        # Socket lock: contended when app and softirq contexts run on
        # different cores (the §3.1 no-aRFS lock overhead).
        self.sock_lock_item = ("lock_sock", costs.sock_lock_uncontended)
        self.sock_lock_contended_item = ("lock_sock", costs.sock_lock_contended)
        # --- GRO ----------------------------------------------------------
        self.gro_receive_item = ("dev_gro_receive", costs.gro_receive_per_frame)
        self.gro_merge_pair: ChargeTuple = (
            ("kmem_cache_free", costs.skb_free_cycles),
            ("skb_put", costs.skb_put_cycles),
        )
        # --- memo dictionaries (keyed by batch size) ----------------------
        self._tx_tail: dict = {}
        self._clean_rtx: dict = {}
        self._gro_flush: dict = {}
        self._napi_head: dict = {}
        self._sendmsg_skbs: dict = {}
        self._copy_per_byte: dict = {}

    def tx_tail(self, nskbs: int) -> ChargeTuple:
        """Per-burst transmit charges below TCP (one entry per layer)."""
        entry = self._tx_tail.get(nskbs)
        if entry is None:
            costs = self.costs
            entry = self._tx_tail[nskbs] = (
                ("tcp_write_xmit", costs.tcp_write_xmit_per_skb * nskbs),
                ("ip_queue_xmit", costs.ip_tx_per_skb * nskbs),
                ("__qdisc_run", costs.qdisc_per_skb * nskbs),
                ("mlx5e_xmit", costs.driver_tx_per_skb * nskbs),
            )
        return entry

    def clean_rtx(self, nskbs: int) -> ChargeTuple:
        """Freeing ``nskbs`` acked skbs off the retransmit queue."""
        entry = self._clean_rtx.get(nskbs)
        if entry is None:
            costs = self.costs
            entry = self._clean_rtx[nskbs] = (
                ("tcp_clean_rtx_queue", costs.tcp_clean_rtx_per_skb * nskbs),
                ("skb_release_data", costs.skb_release_cycles * nskbs),
                ("kmem_cache_free", costs.skb_free_cycles * nskbs),
            )
        return entry

    def gro_flush(self, nskbs: int) -> Tuple[str, float]:
        """Flushing ``nskbs`` held skbs up the stack."""
        entry = self._gro_flush.get(nskbs)
        if entry is None:
            entry = self._gro_flush[nskbs] = (
                "napi_gro_flush",
                self.costs.gro_flush_per_skb * nskbs,
            )
        return entry

    def napi_head(self, nframes: int, nrecords: int) -> ChargeTuple:
        """Fixed head of a NAPI poll job: poll + driver + skb allocation."""
        key = (nframes, nrecords)
        entry = self._napi_head.get(key)
        if entry is None:
            costs = self.costs
            entry = self._napi_head[key] = (
                ("napi_poll", costs.napi_poll_overhead),
                ("mlx5e_poll_rx_cq", costs.driver_rx_per_frame * nframes),
                ("kmem_cache_alloc_node", costs.skb_alloc_cycles * nrecords),
                ("__build_skb", costs.skb_build_cycles * nrecords),
            )
        return entry

    def sendmsg_skbs(self, nskbs: int) -> ChargeTuple:
        """Per-sendmsg skb allocation + TCP bookkeeping for ``nskbs`` skbs."""
        entry = self._sendmsg_skbs.get(nskbs)
        if entry is None:
            costs = self.costs
            entry = self._sendmsg_skbs[nskbs] = (
                ("kmem_cache_alloc_node", costs.skb_alloc_cycles * nskbs),
                ("__build_skb", costs.skb_build_cycles * nskbs),
                ("tcp_sendmsg_locked", costs.tcp_sendmsg_per_skb * nskbs),
            )
        return entry

    def copy_per_byte(self, miss_fraction: float) -> float:
        """L3 hit/miss blended copy cost, memoized by miss fraction.

        Steady-state traffic sees a handful of distinct fractions (mostly
        0.0 and 1.0), so the dict stays tiny while skipping two multiplies
        and an add per copy.
        """
        per_byte = self._copy_per_byte.get(miss_fraction)
        if per_byte is None:
            costs = self.costs
            per_byte = self._copy_per_byte[miss_fraction] = (
                costs.copy_per_byte_l3_hit * (1 - miss_fraction)
                + costs.copy_per_byte_l3_miss * miss_fraction
            )
        return per_byte
