"""A lazy RTO deadline is observably identical to an eagerly re-armed timer.

The endpoint keeps its retransmission timeout as a deadline it owns: every
ACK moves the deadline, and the engine is touched only when no fire is
pending by the new deadline; a fire that comes early re-arms at it. The
reference below restores the design it replaced: every arm cancels the
pending timer event and schedules a fresh one, and every disarm cancels it.
Both fire a real timeout at the same instant, so they must agree on every
exported number, both hosts' copy-latency histograms and every endpoint's
timeout count; only the engine's event and cancel counts may differ.
"""

from unittest import mock

from hypothesis import example, given, settings

from repro.config import ExperimentConfig, LinkConfig, TrafficPattern
from repro.core.experiment import Experiment
from repro.core.export import result_to_dict
from repro.kernel.tcp.sender import TcpSender
from repro.units import msec

from .configs import experiment_configs


def _eager_arm_rto(self) -> None:
    _eager_cancel_rto(self)
    if self.segments:
        self._rto_event = self.engine.schedule(self._current_rto(), self._rto_fire)


def _eager_cancel_rto(self) -> None:
    if self._rto_event is not None:
        self._rto_event.cancel()
        self._rto_event = None


def _eager_rto_fire(self) -> None:
    self._rto_event = None
    if not self.segments:
        return
    self.timeouts += 1
    self.cc.on_timeout(self.engine.now)
    self._rto_backoff = min(8, self._rto_backoff * 2)
    self._recovery_point = self.snd_nxt
    self._dupacks = 0
    head = self.segments[0]
    head.retx_ns = self.engine.now
    self._retransmit_segments([head], self.softirq_core)


#: A lossy incast whose flows time out: random draws rarely fire an RTO.
RTO_EXAMPLE = ExperimentConfig(
    pattern=TrafficPattern.INCAST,
    num_flows=3,
    duration_ns=msec(1),
    warmup_ns=msec(1),
    seed=3,
    link=LinkConfig(loss_rate=1e-2, has_switch=True),
)


def _run(config: ExperimentConfig, reference: bool):
    experiment = Experiment(config)
    if reference:
        with mock.patch.object(TcpSender, "_arm_rto", _eager_arm_rto), \
                mock.patch.object(TcpSender, "_cancel_rto", _eager_cancel_rto), \
                mock.patch.object(TcpSender, "_rto_fire", _eager_rto_fire):
            result = experiment.run()
    else:
        result = experiment.run()
    latencies = {
        host: experiment.metrics.copy_latency(host).to_dict()
        for host in ("sender", "receiver")
    }
    timeouts = sum(
        endpoint.timeouts
        for host in (experiment.sender, experiment.receiver)
        for endpoint in host.senders.values()
    )
    return result_to_dict(result), latencies, timeouts


@settings(max_examples=20, deadline=None)
@example(config=RTO_EXAMPLE)
@given(config=experiment_configs())
def test_rto_deadline_matches_eager_timer(config):
    lazy_payload, lazy_latency, lazy_timeouts = _run(config, False)
    ref_payload, ref_latency, ref_timeouts = _run(config, True)

    assert lazy_payload == ref_payload
    assert lazy_latency == ref_latency
    assert lazy_timeouts == ref_timeouts
    if config == RTO_EXAMPLE:
        assert ref_timeouts >= 1
