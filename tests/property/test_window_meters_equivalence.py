"""Meters that start at the measurement window equal meters reset there.

An experiment's profiler, metrics hub and trace histograms record nothing
until the warmup ends, when ``Experiment._start_meters`` opens all of them at
one instant. The reference below restores the design it replaced: every
meter records from t=0 and the warmup boundary discards what it holds with
``reset()``. Trace stamps run through warmup in both, so an interval that
straddles the boundary is recorded the same way; the two must agree on every
exported number (trace payload and audit included), both hosts'
copy-latency histograms, and a clean strict audit.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiment import Experiment
from repro.core.export import result_to_dict
from repro.units import msec

from .configs import experiment_configs


def _reset_meters(self) -> None:
    self.profiler.reset()
    self.sender.reset_cycle_accounting()
    self.receiver.reset_cycle_accounting()
    self.metrics.reset()
    if self.trace is not None:
        self.trace.reset()


def _run(config, reference: bool):
    experiment = Experiment(config, audit=True)
    if reference:
        experiment.profiler.start()
        experiment.metrics.start()
        if experiment.trace is not None:
            experiment.trace.start()
        with mock.patch.object(Experiment, "_start_meters", _reset_meters):
            result = experiment.run()
    else:
        result = experiment.run()
    result.audit_report.raise_if_violations()
    latencies = {
        host: experiment.metrics.copy_latency(host).to_dict()
        for host in ("sender", "receiver")
    }
    return result_to_dict(result), latencies


@settings(max_examples=20, deadline=None)
@given(
    config=experiment_configs(),
    trace=st.booleans(),
    warmup_ns=st.sampled_from([0, msec(1)]),
)
def test_window_meters_match_reset_at_window(config, trace, warmup_ns):
    config = config.replace(trace=trace, warmup_ns=warmup_ns)
    payload, latency = _run(config, reference=False)
    ref_payload, ref_latency = _run(config, reference=True)

    assert payload == ref_payload
    assert latency == ref_latency
    if trace:
        assert "trace" in payload
