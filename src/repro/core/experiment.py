"""Experiment runner: build two hosts, wire the link, run, measure.

Mirrors the paper's methodology (§2.2): two directly-connected servers (an
optional switch appears only for the §3.6 loss experiments), warmup to steady
state, then measure throughput, per-host CPU utilization, a Table-1 CPU
breakdown per side, cache miss rates, and stack latency.
"""

from __future__ import annotations

from typing import Dict, List

from ..config import ExperimentConfig, NumaPolicy, TrafficPattern
from ..constants import (
    DEFAULT_APP_READ_BYTES,
    DEFAULT_APP_WRITE_BYTES,
    ECN_THRESHOLD_BYTES,
    LINK_BANDWIDTH_BPS,
    LINK_PROPAGATION_NS,
    SWITCH_FORWARD_NS,
)
from ..costs.calibration import default_cost_model
from ..kernel.host import Host
from ..kernel.sched import AppThread
from ..sim.engine import Engine
from ..sim.rng import RngStreams
from ..trace import TraceHub
from ..units import throughput_gbps
from ..workloads.apps import (
    rpc_client,
    rpc_server,
    streaming_receiver,
    streaming_sender,
)
from ..workloads.patterns import build_flow_specs
from .metrics import MetricsHub
from .profiler import CpuProfiler
from .results import BreakdownTable, ExperimentResult

#: Stagger between thread start times, to avoid a synchronized t=0 burst.
THREAD_START_STAGGER_NS = 2_000


class Experiment:
    """One configured measurement run.

    With ``audit=True`` a :class:`~repro.core.audit.ConservationAuditor` runs
    at teardown and its report is attached to the result (see
    ``ExperimentResult.audit_report``).
    """

    def __init__(self, config: ExperimentConfig, audit: bool = False) -> None:
        config.validate()
        self.config = config
        self.audit_enabled = audit
        self.engine = Engine()
        self.rngs = RngStreams(config.seed)
        # Meters record nothing until the measurement window opens
        # (``_start_meters``).
        self.profiler = CpuProfiler(recording=False)
        self.metrics = MetricsHub(recording=False)
        costs = default_cost_model()
        if config.cost_overrides:
            costs = costs.replace(**config.cost_overrides)
        costs.validate()
        self.costs = costs

        self.trace = TraceHub(recording=False) if config.trace else None
        self.sender = Host(
            self.engine, "sender", config, costs, self.profiler, self.metrics,
            self.rngs, trace=self.trace,
        )
        self.receiver = Host(
            self.engine, "receiver", config, costs, self.profiler, self.metrics,
            self.rngs, trace=self.trace,
        )
        self._wire_links()
        self.threads: List[AppThread] = []
        self._build_workload()

    # --- construction ---------------------------------------------------------

    def _wire_links(self) -> None:
        from ..hardware.link import Link

        link_cfg = self.config.link
        common = dict(
            bandwidth_bps=LINK_BANDWIDTH_BPS,
            propagation_ns=LINK_PROPAGATION_NS,
            loss_rate=link_cfg.loss_rate,
            has_switch=link_cfg.has_switch,
            switch_delay_ns=SWITCH_FORWARD_NS if link_cfg.has_switch else 0,
            ecn_threshold_bytes=ECN_THRESHOLD_BYTES,
        )
        to_receiver = Link(
            self.engine, "snd->rcv", rng=self.rngs.stream("loss-fwd"), **common
        )
        to_sender = Link(
            self.engine, "rcv->snd", rng=self.rngs.stream("loss-rev"), **common
        )
        self.sender.nic.attach_tx(to_receiver, self.receiver.nic.handle_rx)
        self.receiver.nic.attach_tx(to_sender, self.sender.nic.handle_rx)
        # A link's tx_wire stage is charged to the *transmitting* host (the
        # wire stage lands on the receiving NIC's trace at Rx ingest).
        to_receiver.trace = self.sender.trace
        to_sender.trace = self.receiver.trace
        self.link_to_receiver = to_receiver
        self.link_to_sender = to_sender

    def _placement_order(self, host: Host) -> list:
        if self.config.numa_policy is NumaPolicy.NIC_REMOTE and host is self.receiver:
            return host.topology.cores_nic_remote_first()
        return host.topology.cores_nic_local_first()

    def _build_workload(self) -> None:
        specs = build_flow_specs(self.config)
        workload = self.config.workload
        sender_order = self._placement_order(self.sender)
        receiver_order = self._placement_order(self.receiver)

        shared_server_receivers = []
        shared_server_core = None
        start_ns = 0

        for spec in specs:
            flow_id, tag = spec.flow_id, spec.tag
            snd_core = sender_order[spec.sender_rank]
            rcv_core = receiver_order[spec.receiver_rank]

            if spec.kind == "stream":
                # Each host holds only the half the stream runs there.
                snd = self.sender.add_sender(flow_id, snd_core, tag)
                rcv = self.receiver.add_receiver(flow_id, rcv_core, tag)
                snd.attach_peer(rcv)
                self._spawn(
                    f"iperf-snd-{flow_id}",
                    self.sender,
                    snd_core,
                    streaming_sender(snd, DEFAULT_APP_WRITE_BYTES),
                    start_ns,
                )
                self._spawn(
                    f"iperf-rcv-{flow_id}",
                    self.receiver,
                    rcv_core,
                    streaming_receiver(rcv, DEFAULT_APP_READ_BYTES),
                    start_ns,
                )
            else:
                # Ping-pong: requests and responses both ride this
                # connection, so both hosts hold both halves.
                client = self.sender.add_sender(flow_id, snd_core, tag)
                self.sender.add_receiver(flow_id, snd_core, tag)
                server = self.receiver.add_receiver(flow_id, rcv_core, tag)
                self.receiver.add_sender(flow_id, rcv_core, tag)
                client.attach_peer(server)
                server.sender.attach_peer(client.receiver)
                self._spawn(
                    f"rpc-client-{flow_id}",
                    self.sender,
                    snd_core,
                    rpc_client(client, workload.rpc_size_bytes),
                    start_ns,
                )
                if spec.shared_server_thread:
                    shared_server_receivers.append(server)
                    shared_server_core = rcv_core
                else:
                    self._spawn(
                        f"rpc-server-{flow_id}",
                        self.receiver,
                        rcv_core,
                        rpc_server([server], workload.rpc_size_bytes),
                        start_ns,
                    )
            start_ns += THREAD_START_STAGGER_NS

        if shared_server_receivers:
            self._spawn(
                "rpc-server",
                self.receiver,
                shared_server_core,
                rpc_server(shared_server_receivers, workload.rpc_size_bytes),
                0,
            )

    def _spawn(self, name: str, host: Host, core, body_factory, start_ns: int) -> None:
        thread = AppThread(name, host, core, body_factory)
        self.threads.append(thread)
        self.engine.schedule_at(start_ns, thread.start)

    # --- running ---------------------------------------------------------------------

    def run(self) -> ExperimentResult:
        """Warm up, measure, and assemble the result."""
        cfg = self.config
        self.engine.run(until=cfg.warmup_ns)
        self._start_meters()
        snapshot = self._counter_snapshot()

        end_ns = cfg.warmup_ns + cfg.duration_ns
        self.engine.run(until=end_ns)
        result =self._collect(cfg.duration_ns, snapshot)
        if self.audit_enabled:
            from .audit import audit_experiment

            result.audit_report = audit_experiment(self)
        return result

    def _start_meters(self) -> None:
        """Steady state reached: open the measurement window. Every meter
        starts at this one instant, and core busy-cycle counters restart
        with the profiler so the two stay comparable (both record charges
        at job start)."""
        self.profiler.start()
        self.sender.reset_cycle_accounting()
        self.receiver.reset_cycle_accounting()
        self.metrics.start()
        if self.trace is not None:
            self.trace.start()

    def _counter_snapshot(self) -> Dict[str, int]:
        return {
            "retransmits": self._sum_senders("retransmits"),
            "timeouts": self._sum_senders("timeouts"),
            "nic_rx_drops": self.receiver.nic.total_rx_drops()
            + self.sender.nic.total_rx_drops(),
            "wire_drops": self.link_to_receiver.frames_dropped
            + self.link_to_sender.frames_dropped,
        }

    def _sum_senders(self, attr: str) -> int:
        total = 0
        for host in (self.sender, self.receiver):
            total += sum(getattr(tx, attr) for tx in host.senders.values())
        return total

    def _collect(self, duration_ns: int, snapshot: Dict[str, int]) -> ExperimentResult:
        delivered = self.metrics.total_delivered_bytes()
        total_gbps = throughput_gbps(delivered, duration_ns)
        duration_s = duration_ns / 1e9

        per_flow: Dict[int, float] = {}
        for host in (self.sender, self.receiver):
            for flow_id in host.flows:
                nbytes = self.metrics.flow_bytes(host.name, flow_id)
                if nbytes:
                    per_flow[flow_id] = per_flow.get(flow_id, 0.0) + throughput_gbps(
                        nbytes, duration_ns
                    )

        # Per-tag throughput counts each flow's forward direction exactly once:
        # the receiver host records stream payloads and RPC requests. Summing
        # both hosts would double-count request/response workloads (the client
        # side records the responses for the same flows).
        by_tag = {
            tag: nbytes * 8 / duration_s / 1e9
            for tag, nbytes in self.metrics.delivered_by_tag("receiver").items()
        }

        receiver_side = self.metrics.side("receiver")
        sender_side = self.metrics.side("sender")

        return ExperimentResult(
            config_summary=self._summary_string(),
            duration_ns=duration_ns,
            total_throughput_gbps=total_gbps,
            sender_utilization_cores=self.sender.utilization_cores(duration_ns),
            receiver_utilization_cores=self.receiver.utilization_cores(duration_ns),
            sender_breakdown=BreakdownTable(self.profiler.category_fractions("sender")),
            receiver_breakdown=BreakdownTable(
                self.profiler.category_fractions("receiver")
            ),
            receiver_cache_miss_rate=receiver_side.cache_miss_rate(),
            sender_cache_miss_rate=sender_side.sender_cache_miss_rate(),
            copy_latency=self.receiver.copy_latency.copy(),
            rx_skb_sizes=dict(receiver_side.rx_skb_sizes),
            retransmits=self._sum_senders("retransmits") - snapshot["retransmits"],
            timeouts=self._sum_senders("timeouts") - snapshot["timeouts"],
            nic_rx_drops=(
                self.receiver.nic.total_rx_drops()
                + self.sender.nic.total_rx_drops()
                - snapshot["nic_rx_drops"]
            ),
            wire_drops=(
                self.link_to_receiver.frames_dropped
                + self.link_to_sender.frames_dropped
                - snapshot["wire_drops"]
            ),
            throughput_by_tag_gbps=by_tag,
            per_flow_gbps=per_flow,
            trace=self.trace.report() if self.trace is not None else None,
        )

    def _summary_string(self) -> str:
        cfg = self.config
        opts = []
        if cfg.opts.tso_gro:
            opts.append("tso/gro")
        if cfg.opts.jumbo:
            opts.append("jumbo")
        if cfg.opts.arfs:
            opts.append("arfs")
        if cfg.opts.lro:
            opts.append("lro")
        label = "+".join(opts) if opts else "no-opt"
        extra = ""
        if cfg.pattern is TrafficPattern.MIXED:
            extra = f"+{cfg.workload.num_rpc_flows}rpc"
        return f"{cfg.pattern.value} x{cfg.num_flows}{extra} [{label}]"
