"""Tracing is observably free.

Turning ``ExperimentConfig.trace`` on must not change a single exported
number (DESIGN.md §11). The hooks only *read* virtual time; if a traced run
differed anywhere outside its ``trace`` payload, the hooks would be leaking
into the simulation.

Checked on random configs across the dimensions that stress the stamping
rules: loss (dropped frames must not record wire stages), LRO (ring
completions merge), RPC interleave (both directions tracing), DCTCP. The
telescoping identity and the auditor's cross-checks must hold on every
traced run. (The test name dates from the frame-train wire mode, which the
traced payload once had to match too; that mode is gone.)
"""

from hypothesis import given, settings

from repro.core.experiment import Experiment
from repro.core.export import result_to_dict
from repro.trace import TraceReport

from .configs import experiment_configs


def _run(config, trace):
    experiment = Experiment(config.replace(trace=trace), audit=True)
    result = experiment.run()
    return result, result_to_dict(result)


@settings(max_examples=8, deadline=None)
@given(config=experiment_configs())
def test_tracing_perturbs_nothing_and_is_train_invariant(config):
    _, untraced = _run(config, trace=False)
    traced_result, traced = _run(config, trace=True)

    # Zero perturbation: strip the trace payload and the traced run must
    # equal the untraced run exactly, key for key.
    untraced.pop("audit")
    audit = traced.pop("audit")
    trace_payload = traced.pop("trace")
    assert traced == untraced

    # The telescoping identity survives export, and the auditor (which also
    # cross-checks e2e against the copy-latency metric) passed.
    checks, violations = traced_result.trace.check_identity()
    assert checks > 0 and violations == []
    assert TraceReport.from_dict(trace_payload).check_identity()[1] == []
    assert audit["ok"], audit
