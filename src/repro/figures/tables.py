"""Paper Tables 1 and 2 rendered from the implementation itself."""

from __future__ import annotations

from ..config import SteeringMode
from ..core.report import Table
from ..core.taxonomy import FUNCTION_CATEGORY, Category

_CATEGORY_DESCRIPTIONS = {
    Category.DATA_COPY: "From user space to kernel space, and vice versa.",
    Category.TCPIP: "All the packet processing at TCP/IP layers.",
    Category.NETDEV: "Netdevice and NIC driver operations (NAPI, GSO/GRO, qdisc).",
    Category.SKB_MGMT: "Functions to build, split, and release skb.",
    Category.MEMORY: "skb de-/allocation and page de-/alloc related operations.",
    Category.LOCK: "Lock-related operations (e.g., spin locks).",
    Category.SCHED: "Scheduling/context-switching among threads.",
    Category.ETC: "All the remaining functions (e.g., IRQ handling).",
}

_STEERING_DESCRIPTIONS = {
    SteeringMode.RPS: "Use the 4-tuple hash for core selection.",
    SteeringMode.RFS: "Find the core that the application is running on.",
    SteeringMode.RSS: "Hardware version of RPS supported by NICs.",
    SteeringMode.ARFS: "Hardware version of RFS supported by NICs.",
}


def table1() -> Table:
    """CPU usage taxonomy, with the kernel symbols each category covers."""
    table = Table(
        "Table 1: CPU usage taxonomy",
        ["component", "description", "example_functions"],
    )
    for category in Category:
        functions = sorted(
            op for op, cat in FUNCTION_CATEGORY.items() if cat is category
        )
        table.add_row(
            category.label,
            _CATEGORY_DESCRIPTIONS[category],
            ", ".join(functions[:3]) + ("..." if len(functions) > 3 else ""),
        )
    return table


def table2() -> Table:
    """Receiver-side flow steering techniques."""
    table = Table(
        "Table 2: receiver-side flow steering techniques",
        ["mechanism", "description"],
    )
    for mode in (
        SteeringMode.RPS,
        SteeringMode.RFS,
        SteeringMode.RSS,
        SteeringMode.ARFS,
    ):
        table.add_row(mode.value.upper(), _STEERING_DESCRIPTIONS[mode])
    return table
