"""One DRS clock per host is observably identical to a timer per endpoint.

Receive-buffer autotuning (DRS) runs from one periodic clock per host that
updates every registered endpoint in turn. The reference below restores the
design it replaced: each autotuned endpoint re-arms its own
``AUTOTUNE_PERIOD_NS`` timer for the whole run. A DRS update touches only its
own endpoint and schedules nothing, so the two must agree on every exported
number and both hosts' copy-latency histograms; only the engine's event count
may differ (the reference fires one timer per endpoint instead of one per
host).
"""

from unittest import mock

from hypothesis import given, settings

from repro.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.core.export import result_to_dict
from repro.kernel.tcp.receiver import AUTOTUNE_PERIOD_NS

from .configs import experiment_configs


class _PerEndpointTimers:
    """Reference registration: a self-rearming DRS timer per endpoint."""

    def __init__(self, engine) -> None:
        self.engine = engine

    def register(self, endpoint) -> None:
        engine = self.engine

        def tick() -> None:
            endpoint._autotune_tick()
            engine.schedule(AUTOTUNE_PERIOD_NS, tick)

        engine.schedule(AUTOTUNE_PERIOD_NS, tick)


def _run(config: ExperimentConfig, reference: bool):
    if reference:
        with mock.patch("repro.kernel.host.AutotuneClock", _PerEndpointTimers):
            experiment = Experiment(config)
    else:
        experiment = Experiment(config)
    payload = result_to_dict(experiment.run())
    latencies = {
        host: experiment.metrics.copy_latency(host).to_dict()
        for host in ("sender", "receiver")
    }
    # The most receive halves any one host holds (each one autotunes).
    endpoints = max(len(experiment.sender.receivers), len(experiment.receiver.receivers))
    return payload, latencies, experiment.engine.events_fired, endpoints


@settings(max_examples=10, deadline=None)
@given(config=experiment_configs())
def test_host_clock_matches_per_endpoint_timers(config):
    clock_payload, clock_latency, clock_events, endpoints = _run(config, False)
    ref_payload, ref_latency, ref_events, _ = _run(config, True)

    assert clock_payload == ref_payload
    assert clock_latency == ref_latency

    # The clock saves events exactly when a host has several autotuned
    # endpoints; with one per host it fires what the per-endpoint timer did.
    if config.tcp.rx_buffer_bytes is None and endpoints > 1:
        assert clock_events < ref_events
    else:
        assert clock_events == ref_events
