"""Per-host wiring of the full data path.

A :class:`Host` owns the hardware (topology, cores, L3/DCA, NIC with one Rx
queue per core) and the kernel state (page allocator, IOMMU, NAPI contexts,
and the TCP halves of the flows that run on it: a :class:`TcpSender` where a
flow sends, a :class:`TcpReceiver` where it receives). Flow steering follows
the experiment configuration:

* **aRFS on** — the flow's Rx queue is the one whose IRQ core *is* the
  application core (install may fail when the NIC steering table is full,
  falling back to RSS — the §3.5 all-to-all caveat).
* **aRFS off, worst-case mapping** — IRQs are pinned to a core on a NUMA node
  different from the application's (the paper's deterministic worst case).
* **aRFS off, no pinning** — plain RSS hashing across all queues.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..config import ExperimentConfig
from ..constants import (
    ARFS_TABLE_CAPACITY,
    CORES_PER_NUMA_NODE,
    CPU_FREQ_HZ,
    DCA_FRACTION_OF_L3,
    DEFAULT_APP_WRITE_BYTES,
    L3_CACHE_BYTES,
    NIC_NUMA_NODE,
    NUM_NUMA_NODES,
)
from ..core.profiler import CpuProfiler
from ..costs.model import CostModel
from ..hardware.cache import L3CacheModel
from ..hardware.cpu import Core
from ..hardware.iommu import IommuModel
from ..hardware.nic import Nic
from ..hardware.steering import SteeringEngine
from ..hardware.topology import Topology
from .mem import PageAllocator
from .napi import NapiContext
from .tcp.receiver import AutotuneClock, TcpReceiver
from .tcp.sender import TcpSender

if TYPE_CHECKING:  # pragma: no cover
    from ..core.metrics import MetricsHub
    from ..sim.engine import Engine
    from ..sim.rng import RngStreams


class Host:
    """One server: hardware plus kernel stack instances."""

    def __init__(
        self,
        engine: "Engine",
        name: str,
        config: ExperimentConfig,
        costs: CostModel,
        profiler: CpuProfiler,
        metrics: "MetricsHub",
        rngs: "RngStreams",
        trace=None,
    ) -> None:
        self.engine = engine
        self.name = name
        self.config = config
        self.costs = costs
        self.profiler = profiler
        self.metrics = metrics
        # NAPI poll -> copy start, once per skb (Fig 3f); also the trace's
        # ``e2e`` stage.
        self.copy_latency = metrics.copy_latency(name)
        # Per-host trace sink (None unless config.trace): every data-path
        # hook gates on one ``is not None`` check against this reference.
        self.trace = (
            trace.side(name, self.copy_latency) if trace is not None else None
        )

        host_cfg = config.host
        self.topology = Topology(NUM_NUMA_NODES, CORES_PER_NUMA_NODE, NIC_NUMA_NODE)
        for core_id in range(self.topology.total_cores):
            core = Core(
                engine,
                profiler,
                costs,
                name,
                core_id,
                self.topology.node_of_core(core_id),
                CPU_FREQ_HZ,
            )
            self.topology.register_core(core)

        self.cache = L3CacheModel(
            num_nodes=NUM_NUMA_NODES,
            l3_bytes=L3_CACHE_BYTES,
            dca_capacity_bytes=int(L3_CACHE_BYTES * DCA_FRACTION_OF_L3),
            nic_node=NIC_NUMA_NODE,
            dca_enabled=host_cfg.dca_enabled,
            dilution_exponent=host_cfg.dca_dilution_exponent,
            rng=rngs.stream(f"dca-{name}"),
        )
        self.allocator = PageAllocator(costs)
        self.iommu = IommuModel(host_cfg.iommu_enabled, costs)

        self.steering = SteeringEngine(
            config.steering,
            rngs.stream(f"steering-{name}"),
            ARFS_TABLE_CAPACITY,
        )
        self.nic = Nic(
            engine,
            name=f"nic-{name}",
            numa_node=NIC_NUMA_NODE,
            mtu=config.opts.mtu,
            tso=config.opts.tso_gro,
            lro=config.opts.lro,
            rx_descriptors=config.nic.rx_descriptors,
            steering=self.steering,
            dca=self.cache.dca,  # carries its own enabled flag
        )
        self.nic.trace = self.trace
        # One Rx queue per core, IRQ-affined to that core.
        self.napis: List[NapiContext] = []
        for core in self.topology.cores:
            queue = self.nic.add_rx_queue(core)
            self.napis.append(NapiContext(self, queue))

        #: The halves of each flow that run on this host: a stream's sender
        #: host holds only its sender, its receiver host only its receiver,
        #: and both ends of an RPC connection hold both.
        self.senders: Dict[int, TcpSender] = {}
        self.receivers: Dict[int, TcpReceiver] = {}
        #: Flow id -> the core its softirq (NAPI/TCP) work runs on, set when
        #: the flow's first half is added (in registration order).
        self.flows: Dict[int, Core] = {}
        #: DRS clocks keyed by the virtual instant they were created: a
        #: receiver joins the clock of its registration instant, so its
        #: first update lands one period after it was added.
        self.autotune_clocks: Dict[int, AutotuneClock] = {}

    # --- construction helpers ----------------------------------------------------

    def core(self, index: int) -> Core:
        return self.topology.cores[index]

    def add_sender(
        self, flow_id: int, app_core: Core, flow_tag: str = "long"
    ) -> TcpSender:
        """Create the transmit half of ``flow_id`` pinned to ``app_core``."""
        if flow_id in self.senders:
            raise ValueError(f"duplicate sender for flow {flow_id} on host {self.name}")
        sender = TcpSender(self, flow_id, app_core)
        self.senders[flow_id] = sender
        sender.softirq_core = self._register_flow(flow_id, app_core, flow_tag)
        receiver = self.receivers.get(flow_id)
        if receiver is not None:
            sender.receiver = receiver
            receiver.sender = sender
        return sender

    def add_receiver(
        self, flow_id: int, app_core: Core, flow_tag: str = "long"
    ) -> TcpReceiver:
        """Create the receive half of ``flow_id`` pinned to ``app_core`` and
        enrol it in this instant's DRS clock."""
        if flow_id in self.receivers:
            raise ValueError(
                f"duplicate receiver for flow {flow_id} on host {self.name}"
            )
        receiver = TcpReceiver(self, flow_id, app_core)
        self.receivers[flow_id] = receiver
        if self.config.tcp.rx_buffer_bytes is None:
            now = self.engine.now
            clock = self.autotune_clocks.get(now)
            if clock is None:
                clock = self.autotune_clocks[now] = AutotuneClock(self.engine)
            clock.register(receiver)
        receiver.softirq_core = self._register_flow(flow_id, app_core, flow_tag)
        sender = self.senders.get(flow_id)
        if sender is not None:
            sender.receiver = receiver
            receiver.sender = sender
        return receiver

    def _register_flow(self, flow_id: int, app_core: Core, flow_tag: str) -> Core:
        """Register ``flow_id`` on this host once, when its first half is
        added: metrics tag, receive-side steering and the sender working
        set. Returns the flow's softirq core."""
        softirq_core = self.flows.get(flow_id)
        if softirq_core is not None:
            return softirq_core
        self.metrics.register_flow(flow_id, flow_tag)
        softirq_core = self.flows[flow_id] = self._steer_flow(flow_id, app_core)
        # Sender-side working set (application write buffer) warms this
        # node's L3; used by the sender-copy miss heuristic.
        self.cache.register_working_set(
            app_core.numa_node, 2 * DEFAULT_APP_WRITE_BYTES
        )
        return softirq_core

    def _steer_flow(self, flow_id: int, app_core: Core) -> Core:
        """Install the flow's receive steering; return its softirq core."""
        from ..config import SteeringMode

        queue = self.nic.queues[app_core.core_id]
        if self.config.opts.arfs:
            if self.steering.install_arfs(flow_id, queue):
                return app_core
            # table full: flow falls back to RSS
            return self.steering.queue_for(flow_id).irq_core
        if self.config.worst_case_irq_mapping:
            remote_core = self.topology.remote_core_for(app_core)
            remote_queue = self.nic.queues[remote_core.core_id]
            self.steering.pin_flow(flow_id, remote_queue)
            return remote_core
        hash_core = self.steering.queue_for(flow_id).irq_core
        if self.config.steering is SteeringMode.RFS:
            # Software RFS: the IRQ lands on the hash-selected core, but
            # TCP processing is forwarded to the application's core.
            return app_core
        # RSS and RPS both end up processing on the hash-selected core
        # (RPS re-hashes in software to the same 4-tuple target).
        return hash_core

    # --- DCA helpers used by receivers -------------------------------------------------

    def dca_discard(self, region_id: int) -> None:
        if self.nic.dca is not None:
            self.nic.dca.discard(region_id)

    # --- queries -----------------------------------------------------------------------------

    def reset_cycle_accounting(self) -> None:
        """Zero every core's busy-cycle counter (end of warmup, as the
        profiler starts recording — both record charges at job start, so
        starting them at the same instant keeps cycle conservation exact)."""
        for core in self.topology.cores:
            core.reset_cycle_accounting()

    def utilization_cores(self, elapsed_ns: int) -> float:
        """Total CPU utilization in units of fully-busy cores."""
        if elapsed_ns <= 0:
            return 0.0
        cycles = self.profiler.total_cycles(self.name)
        return cycles / (CPU_FREQ_HZ * elapsed_ns / 1e9)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Host {self.name} flows={len(self.flows)}>"
