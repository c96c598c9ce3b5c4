"""Unit tests for NAPI (IRQ coalescing, polling, budget, forwarding)."""

import pytest

from repro.config import ExperimentConfig, OptimizationConfig, SteeringMode, TrafficPattern
from repro.constants import IRQ_COALESCE_NS, NAPI_BUDGET_FRAMES
from repro.core.experiment import Experiment
from repro.hardware.link import Frame
from repro.kernel.napi import NapiContext
from repro.units import msec


def make_experiment(**kwargs):
    """Build an experiment but cancel its application threads, so injected
    frames are the only traffic and NAPI behaviour is observable in
    isolation."""
    experiment = Experiment(ExperimentConfig(duration_ns=msec(1), **kwargs))
    for event in list(experiment.engine._iter_queued()):
        if getattr(event.fn, "__name__", "") == "start":
            event.cancel()
    return experiment


def inject_frames(experiment, count, flow_id=1, size=8960):
    frames = [
        Frame(flow_id, Frame.KIND_DATA, i * size, size, size + 58)
        for i in range(count)
    ]
    experiment.receiver.nic.handle_rx(frames)


def napi_for_flow(experiment, flow_id=1):
    endpoint = experiment.receiver.receivers[flow_id]
    queue = experiment.receiver.steering.queue_for(flow_id)
    return queue.napi, endpoint


def test_first_frame_after_idle_polls_immediately():
    experiment = make_experiment()
    napi, _ = napi_for_flow(experiment)
    inject_frames(experiment, 1)
    assert napi.scheduled
    experiment.engine.run(until=5_000)  # 5us: well inside the coalesce window
    assert napi.polls >= 1  # idle queue -> latency mode, no coalescing delay


def test_steady_traffic_coalesces_interrupts():
    experiment = make_experiment()
    napi, _ = napi_for_flow(experiment)
    inject_frames(experiment, 1)
    experiment.engine.run(until=10_000)
    polls_before = napi.polls
    inject_frames(experiment, 2, size=1000)  # small follow-up burst
    assert napi.scheduled
    # within the coalescing window nothing fires...
    experiment.engine.run(until=experiment.engine.now + IRQ_COALESCE_NS // 2)
    assert napi.polls == polls_before
    # ...but the timer eventually does
    experiment.engine.run(until=experiment.engine.now + 2 * IRQ_COALESCE_NS)
    assert napi.polls > polls_before


def test_poll_respects_budget():
    experiment = make_experiment()
    napi, _ = napi_for_flow(experiment)
    inject_frames(experiment, NAPI_BUDGET_FRAMES + 50)
    experiment.engine.run(until=msec(1))
    # all frames processed eventually, across more than one poll
    assert napi.polls >= 2
    assert len(napi.rxq.pending) == 0


def test_processing_advances_tcp_state():
    experiment = make_experiment()
    napi, endpoint = napi_for_flow(experiment)
    inject_frames(experiment, 4)
    experiment.engine.run(until=msec(1))
    assert endpoint.rcv_nxt == 4 * 8960


def test_descriptors_replenished_after_poll():
    experiment = make_experiment()
    napi, _ = napi_for_flow(experiment)
    queue = napi.rxq
    inject_frames(experiment, 10)
    assert queue.avail_descriptors == queue.capacity - 10
    experiment.engine.run(until=msec(1))
    assert queue.avail_descriptors == queue.capacity


def test_rfs_forwards_tcp_processing_to_app_core():
    experiment = make_experiment(
        opts=OptimizationConfig.tso_gro_jumbo(),
        worst_case_irq_mapping=False,
        steering=SteeringMode.RFS,
    )
    endpoint = experiment.receiver.receivers[1]
    irq_core = experiment.receiver.steering.queue_for(1).irq_core
    # RFS: TCP runs on the app core even when IRQs land elsewhere
    assert endpoint.softirq_core is endpoint.app_core
    experiment.profiler.start()  # an experiment's profiler opens at the window
    inject_frames(experiment, 4)
    experiment.engine.run(until=msec(1))
    assert endpoint.rcv_nxt == 4 * 8960
    if irq_core is not endpoint.app_core:
        # the app core burned TCP cycles
        assert experiment.profiler.core_cycles(endpoint.app_core.key) > 0


@pytest.mark.parametrize(
    "config",
    [
        # a budget-bound line-rate flow (repolls), software RFS (remote
        # forwarding) and 16 small RPC flows (ACKs and data in one poll)
        ExperimentConfig(duration_ns=msec(1), warmup_ns=msec(1)),
        ExperimentConfig(
            duration_ns=msec(1), warmup_ns=msec(1),
            opts=OptimizationConfig.tso_gro_jumbo(), steering=SteeringMode.RFS,
            worst_case_irq_mapping=False,
        ),
        ExperimentConfig(
            duration_ns=msec(1), warmup_ns=msec(1), pattern=TrafficPattern.RPC_INCAST,
            num_flows=16, opts=OptimizationConfig.all(),
        ),
    ],
    ids=["single", "rfs", "rpc"],
)
def test_context_cannot_poll_again_before_its_done_has_run(monkeypatch, config):
    """A context reuses one set of per-poll containers, which is safe only
    if a poll that took a batch is always completed (``_done``) before the
    context's next poll starts: ``scheduled`` stays set until then, so no
    IRQ can start a second chain. Checked on every poll of whole runs."""
    in_flight = set()
    polls_with_batch = []
    real_poll, real_done = NapiContext._poll, NapiContext._done

    def poll(self):
        assert self not in in_flight, "poll started before the last one's done"
        assert self.scheduled
        assert not self._deferred and not self._ack_frames and not self._remote
        before = self.polls
        real_poll(self)
        if self.polls > before:
            in_flight.add(self)
            polls_with_batch.append(self)

    def done(self):
        in_flight.remove(self)
        real_done(self)
        assert not self._deferred and not self._ack_frames and not self._remote

    monkeypatch.setattr(NapiContext, "_poll", poll)
    monkeypatch.setattr(NapiContext, "_done", done)
    experiment = Experiment(config)
    experiment.run()
    assert len(polls_with_batch) > 10
    # Every context with a poll still in flight at the end is mid-chain.
    assert all(napi.scheduled for napi in in_flight)
