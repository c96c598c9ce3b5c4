"""The conservation auditor is observably free, on random configs.

``Experiment(config, audit=True)`` walks the whole simulator after the run
to cross-check its byte, wire, cycle and queue identities. The promise is
the one the deleted frame-train mode was held to: *bit-identical results*
— every exported number, every latency reservoir sample, every engine
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
    reservoirs = {
        host: (
            list(experiment.metrics.side(host).latency_samples),
            experiment.metrics.side(host).latency_dropped,
        )
        for host in ("sender", "receiver")
    }
    return payload, reservoirs, experiment.engine.events_fired


@settings(max_examples=10, deadline=None)
@given(config=experiment_configs())
def test_train_pipeline_is_observably_identical(config):
    audited_payload, audited_samples, audited_events = _run_mode(config, True)
    plain_payload, plain_samples, plain_events = _run_mode(config, False)

    # Every exported number — throughput, breakdowns, cache rates, latency
    # summary, drop/retransmit counters, per-flow rates — must match exactly.
    audit = audited_payload.pop("audit")
    assert "audit" not in plain_payload
    assert audited_payload == plain_payload

    # The raw latency reservoirs (not just their summaries): same samples in
    # the same order means every recording happened at the same instant with
    # the same reservoir RNG state.
    assert audited_samples == plain_samples

    # The auditor schedules nothing, and the audited run conserves.
    assert audited_events == plain_events
    assert audit["ok"], audit
