"""CPU usage taxonomy (paper Table 1).

The paper samples CPU cycles with ``perf``, takes the top functions covering
~95% of utilization, and classifies them into 8 categories by inspecting
kernel source. The simulator inverts this: every cycle is charged against a
named kernel *operation* (chosen to match real kernel symbols), and each
operation maps to exactly one Table-1 category.
"""

from __future__ import annotations

import enum
from typing import Dict


class Category(enum.Enum):
    """The 8 CPU-usage categories of paper Table 1."""

    DATA_COPY = "data_copy"      # user<->kernel payload copies
    TCPIP = "tcpip"              # TCP/IP protocol processing
    NETDEV = "netdev"            # netdevice subsystem + NIC driver (NAPI, GSO/GRO, qdisc)
    SKB_MGMT = "skb_mgmt"        # building/splitting/releasing skbs
    MEMORY = "memory"            # skb de-/allocation, page de-/allocation
    LOCK = "lock"                # lock-related operations (spin locks, socket lock)
    SCHED = "sched"              # scheduling / context switching among threads
    ETC = "etc"                  # everything else (IRQ handling, syscall entry, ...)

    @property
    def label(self) -> str:
        """Human-readable label used in reports (matches the paper's plots)."""
        return _LABELS[self]


_LABELS = {
    Category.DATA_COPY: "data copy",
    Category.TCPIP: "tcp/ip",
    Category.NETDEV: "netdev subsystem",
    Category.SKB_MGMT: "skb mgmt",
    Category.MEMORY: "memory alloc/dealloc",
    Category.LOCK: "lock/unlock",
    Category.SCHED: "scheduling",
    Category.ETC: "etc",
}


#: Map of simulated kernel operations (named after the Linux symbols a real
#: ``perf`` profile of this path would show) to Table-1 categories.
FUNCTION_CATEGORY: Dict[str, Category] = {
    # --- data copy -----------------------------------------------------------
    "copy_user_enhanced_fast_string": Category.DATA_COPY,
    "copy_from_user": Category.DATA_COPY,
    "copy_to_user": Category.DATA_COPY,
    "skb_copy_datagram_iter": Category.DATA_COPY,
    # --- TCP/IP protocol processing -------------------------------------------
    "tcp_sendmsg_locked": Category.TCPIP,
    "tcp_write_xmit": Category.TCPIP,
    "tcp_rcv_established": Category.TCPIP,
    "tcp_ack": Category.TCPIP,
    "tcp_send_ack": Category.TCPIP,
    "tcp_data_queue_ofo": Category.TCPIP,
    "tcp_retransmit_skb": Category.TCPIP,
    "tcp_clean_rtx_queue": Category.TCPIP,
    "ip_queue_xmit": Category.TCPIP,
    "ip_rcv": Category.TCPIP,
    # --- netdevice subsystem / driver -----------------------------------------
    "napi_poll": Category.NETDEV,
    "mlx5e_poll_rx_cq": Category.NETDEV,
    "mlx5e_xmit": Category.NETDEV,
    "dev_gro_receive": Category.NETDEV,
    "napi_gro_flush": Category.NETDEV,
    "__qdisc_run": Category.NETDEV,
    "dev_queue_xmit": Category.NETDEV,
    "net_rx_action": Category.NETDEV,
    # --- skb management --------------------------------------------------------
    "__skb_clone": Category.SKB_MGMT,
    "skb_release_data": Category.SKB_MGMT,
    "__build_skb": Category.SKB_MGMT,
    "skb_put": Category.SKB_MGMT,
    # --- memory ------------------------------------------------------------------
    "kmem_cache_alloc_node": Category.MEMORY,
    "kmem_cache_free": Category.MEMORY,
    "__alloc_pages_nodemask": Category.MEMORY,
    "free_pcppages_bulk": Category.MEMORY,
    "page_pool_alloc_pages": Category.MEMORY,
    "page_frag_free": Category.MEMORY,
    "iommu_map_page": Category.MEMORY,
    "iommu_unmap_page": Category.MEMORY,
    # --- locks --------------------------------------------------------------------
    "_raw_spin_lock": Category.LOCK,
    "_raw_spin_lock_bh": Category.LOCK,
    "lock_sock": Category.LOCK,
    "release_sock": Category.LOCK,
    # --- scheduling ------------------------------------------------------------------
    "__schedule": Category.SCHED,
    "try_to_wake_up": Category.SCHED,
    "pick_next_task_fair": Category.SCHED,
    "dequeue_task_fair": Category.SCHED,
    "hrtimer_wakeup": Category.SCHED,
    # --- everything else ----------------------------------------------------------------
    "handle_irq_event": Category.ETC,
    "do_syscall_64": Category.ETC,
    "ktime_get": Category.ETC,
    "csum_partial": Category.ETC,
}


def categorize(op: str) -> Category:
    """Return the Table-1 category for a simulated kernel operation.

    Raises ``KeyError`` for unknown operations — every cycle the simulator
    charges must be classifiable, exactly like the paper's methodology.
    """
    try:
        return FUNCTION_CATEGORY[op]
    except KeyError:
        raise KeyError(f"unclassified kernel operation: {op!r}") from None
