"""Testbed constants mirroring the paper's experimental setup (§2.2).

The paper's servers: 4-socket NUMA Intel Xeon Gold 6128 @ 3.4GHz, 6 cores per
socket, 32KB/1MB/20MB L1/L2/L3, 256GB RAM, 100Gbps Mellanox ConnectX-5 Ex NIC
attached to one socket, Ubuntu 16.04 with kernel 5.4.43, DDIO on,
hyperthreading and IOMMU off by default.

The paper measures this one testbed and varies only the stack and the
traffic, so none of these values is a config field: the simulator reads them
here directly. Hardware models still take them as constructor arguments,
which unit tests drive with other values.
"""

from __future__ import annotations

from .units import kb, mb, msec, usec

# --- CPU / topology -----------------------------------------------------------

CPU_FREQ_HZ = 3.4e9
NUM_NUMA_NODES = 4
CORES_PER_NUMA_NODE = 6
NIC_NUMA_NODE = 0

L3_CACHE_BYTES = mb(20)

# DDIO can only use ~18% (~3MB) of L3 in the paper's setup (§3.1, footnote 7).
DCA_FRACTION_OF_L3 = 0.18

PAGE_BYTES = 4096

# --- link ----------------------------------------------------------------------

LINK_BANDWIDTH_BPS = 100e9
# One-way propagation on a directly-connected pair (no switch): sub-us.
LINK_PROPAGATION_NS = usec(1)
SWITCH_FORWARD_NS = usec(1)
# DCTCP marking threshold at the switch queue (~65 jumbo frames).
ECN_THRESHOLD_BYTES = 9000 * 65

# --- NIC ------------------------------------------------------------------------

DEFAULT_MTU = 1500
JUMBO_MTU = 9000
MAX_GSO_SIZE = 64 * 1024  # 64KB skbs with TSO/GSO/GRO
DEFAULT_NIC_RX_DESCRIPTORS = 1024
# aRFS steering-table capacity: large but finite (the paper could not install
# 576 entries for 24x24 all-to-all, §3.5).
ARFS_TABLE_CAPACITY = 512
ETHERNET_HEADER_BYTES = 18
IP_HEADER_BYTES = 20
TCP_HEADER_BYTES = 20
FRAME_OVERHEAD_BYTES = ETHERNET_HEADER_BYTES + IP_HEADER_BYTES + TCP_HEADER_BYTES

# --- NAPI (footnote 2) -----------------------------------------------------------

NAPI_BUDGET_FRAMES = 300

# Adaptive interrupt moderation (Mellanox adaptive-rx): under steady traffic
# the IRQ waits for a few frames or a short timer; after idle it fires
# immediately for latency.
IRQ_COALESCE_NS = usec(16)
IRQ_COALESCE_FRAMES = 16
IRQ_IDLE_RESET_NS = usec(100)

# --- TCP ---------------------------------------------------------------------------

DEFAULT_TCP_RX_BUFFER_BYTES = kb(3200)
DEFAULT_TCP_TX_BUFFER_BYTES = kb(3200)
TCP_INIT_CWND_SEGMENTS = 10
TCP_MIN_RTO_NS = msec(1)
DELAYED_ACK_TIMEOUT_NS = usec(200)
# Linux acks at least every 2 received segments (RFC 1122 / quickack).
ACK_EVERY_N_SEGMENTS = 2

# --- kernel memory ----------------------------------------------------------------

# Per-CPU pageset ("pcp") capacity, in pages, and refill batch size.
PAGESET_CAPACITY_PAGES = 512
PAGESET_BATCH_PAGES = 64

# --- applications -----------------------------------------------------------------

DEFAULT_APP_WRITE_BYTES = 128 * 1024  # iperf default-ish write size
DEFAULT_APP_READ_BYTES = 128 * 1024
