"""Unit tests for per-host wiring (steering policies, utilization math)."""

import pytest

from repro.config import ExperimentConfig, OptimizationConfig, TcpConfig
from repro.core.metrics import MetricsHub
from repro.core.profiler import CpuProfiler
from repro.costs.calibration import default_cost_model
from repro.kernel import host as host_module
from repro.kernel.host import Host
from repro.kernel.tcp.receiver import AUTOTUNE_PERIOD_NS, TcpReceiver
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.units import kb


def make_host(config=None):
    config = config or ExperimentConfig()
    engine = Engine()
    profiler = CpuProfiler()
    return Host(engine, "receiver", config, default_cost_model(), profiler,
                MetricsHub(), RngStreams(1)), profiler


def test_host_has_one_rx_queue_per_core():
    host, _ = make_host()
    assert len(host.nic.queues) == 24
    assert all(q.irq_core is host.core(i) for i, q in enumerate(host.nic.queues))


def test_arfs_steers_to_app_core():
    host, _ = make_host(ExperimentConfig(opts=OptimizationConfig.all()))
    endpoint = host.add_receiver(1, host.core(3))
    assert endpoint.softirq_core is host.core(3)
    assert host.steering.queue_for(1).irq_core is host.core(3)


def test_worst_case_mapping_pins_remote_node():
    host, _ = make_host(ExperimentConfig(opts=OptimizationConfig.none()))
    endpoint = host.add_receiver(1, host.core(0))
    assert endpoint.softirq_core.numa_node != host.core(0).numa_node


def test_arfs_table_overflow_falls_back_to_rss(monkeypatch):
    # The table capacity is a testbed constant; shrink it where Host reads it.
    monkeypatch.setattr(host_module, "ARFS_TABLE_CAPACITY", 1)
    host, _ = make_host()
    first = host.add_receiver(1, host.core(0))
    second = host.add_receiver(2, host.core(1))
    assert first.softirq_core is host.core(0)
    # second flow could hash anywhere; it must at least be consistent
    assert host.steering.queue_for(2).irq_core is second.softirq_core
    assert host.steering.arfs_install_failures == 1


def test_duplicate_flow_id_rejected():
    host, _ = make_host()
    host.add_receiver(1, host.core(0))
    with pytest.raises(ValueError):
        host.add_receiver(1, host.core(1))


def test_utilization_from_profiler_cycles():
    host, profiler = make_host()
    core = host.core(0)
    profiler.charge(core, "copy_to_user", 3.4e9 / 100)  # 1% of a second
    util = host.utilization_cores(elapsed_ns=10_000_000)  # over 10ms
    assert util == pytest.approx(1.0)


def test_utilization_zero_elapsed():
    host, _ = make_host()
    assert host.utilization_cores(0) == 0.0


# --- receive-buffer autotuning clock --------------------------------------------


def _autotune_events(host):
    return sorted(
        event.time
        for event in host.engine._iter_queued()
        if not event.cancelled
        and any(event.fn == clock._tick for clock in host.autotune_clocks.values())
    )


def test_one_autotune_event_per_period_for_many_endpoints():
    host, _ = make_host()
    for flow_id in range(1, 7):
        host.add_receiver(flow_id, host.core(flow_id))
    assert len(host.autotune_clocks) == 1
    assert _autotune_events(host) == [AUTOTUNE_PERIOD_NS]
    assert host.engine.pending_events() == 1
    host.engine.run(until=3 * AUTOTUNE_PERIOD_NS)
    assert _autotune_events(host) == [4 * AUTOTUNE_PERIOD_NS]
    assert host.engine.pending_events() == 1


def test_later_endpoint_first_ticks_one_period_after_registration(monkeypatch):
    host, _ = make_host()
    engine = host.engine
    ticks = {1: [], 2: []}
    monkeypatch.setattr(
        TcpReceiver, "_autotune_tick",
        lambda self: ticks[self.flow_id].append(engine.now),
    )

    def watch(endpoint):
        # A nonzero delivered count keeps the clock from skipping the update.
        endpoint._delivered_since_autotune = 1

    watch(host.add_receiver(1, host.core(0)))
    engine.run(until=100_000)
    watch(host.add_receiver(2, host.core(1)))
    assert sorted(host.autotune_clocks) == [0, 100_000]
    engine.run(until=3 * AUTOTUNE_PERIOD_NS)
    assert ticks[1] == [AUTOTUNE_PERIOD_NS, 2 * AUTOTUNE_PERIOD_NS, 3 * AUTOTUNE_PERIOD_NS]
    assert ticks[2] == [100_000 + AUTOTUNE_PERIOD_NS, 100_000 + 2 * AUTOTUNE_PERIOD_NS]


def test_autotune_off_registers_nothing():
    host, _ = make_host(ExperimentConfig(tcp=TcpConfig(rx_buffer_bytes=kb(3200))))
    host.add_receiver(1, host.core(0))
    host.add_receiver(2, host.core(1))
    assert host.autotune_clocks == {}
    assert host.engine.pending_events() == 0
