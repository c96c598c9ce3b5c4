"""Config fuzzer under strict conservation audit.

Every drawn config must run to a clean strict audit: byte, wire, cycle,
event-queue and metrics accounting all conserve (DESIGN.md §9). The figure
configs are audited exhaustively in ``tests/integration/test_audit.py``;
this suite covers the combinations no figure submits.
"""

from hypothesis import given, settings

from repro.core.audit import audit_experiment
from repro.core.experiment import Experiment

from .configs import experiment_configs


@settings(max_examples=12, deadline=None)
@given(config=experiment_configs())
def test_every_config_passes_strict_audit(config):
    experiment = Experiment(config)
    experiment.run()
    report = audit_experiment(experiment, strict=True)
    assert report.checks_run > 0
