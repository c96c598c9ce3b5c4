"""The conservation auditor is observably free, on random configs.

``Experiment(config, audit=True)`` walks the whole simulator after the run
to cross-check its byte, wire, cycle and queue identities. The promise is
the one the deleted frame-train mode was held to: *bit-identical results*
— every exported number, every copy-latency histogram, every engine
event — whether the auditor is on or off. An audit that perturbed the run
would be checking a different simulation from the one it reports on.
"""

from hypothesis import given, settings

from repro.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.core.export import result_to_dict

from .configs import experiment_configs


def _run_mode(config: ExperimentConfig, audit: bool):
    experiment = Experiment(config, audit=audit)
    payload = result_to_dict(experiment.run())
    latencies = {
        host: experiment.metrics.copy_latency(host).to_dict()
        for host in ("sender", "receiver")
    }
    return payload, latencies, experiment.engine.events_fired


@settings(max_examples=10, deadline=None)
@given(config=experiment_configs())
def test_audit_is_observably_free(config):
    audited_payload, audited_latency, audited_events = _run_mode(config, True)
    plain_payload, plain_latency, plain_events = _run_mode(config, False)

    # Every exported number — throughput, breakdowns, cache rates, latency
    # summary, drop/retransmit counters, per-flow rates — must match exactly.
    audit = audited_payload.pop("audit")
    assert "audit" not in plain_payload
    assert audited_payload == plain_payload

    # Both hosts' copy-latency histograms, bucket by bucket (the payload
    # holds only the receiver's).
    assert audited_latency == plain_latency

    # The auditor schedules nothing, and the audited run conserves.
    assert audited_events == plain_events
    assert audit["ok"], audit
