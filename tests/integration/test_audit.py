"""Strict conservation audit over every figure config in the repo.

This is the acceptance gate for the auditor: each experiment config any
figure generator would run (with shortened measurement windows — the
invariants are instant-exact, so they hold regardless of duration) must pass
byte, cycle, wire, and event-queue conservation with zero violations.

The configs are harvested by running every figure panel against a recording
stand-in for ``run_many``, so new figures and new sweep points are audited
automatically as they are added. The runs are the golden-digest gate's:
the session's ``figure_sweep`` fixture (``conftest.py``) audits each
experiment right after digesting its result.
"""

import pytest

from repro.config import ExperimentConfig
from repro.core.runner import run_many
from repro.figures import PANELS
from repro.figures import base as figures_base
from repro.golden import GOLDEN_DURATION_NS, GOLDEN_WARMUP_NS
from repro.units import msec


def test_every_figure_config_passes_strict_audit(figure_sweep):
    assert len(figure_sweep.digests) >= 100, "figure harvest looks implausibly small"
    failures = figure_sweep.audit_failures
    assert not failures, "\n\n".join(failures)


def test_audited_run_many_crosses_process_boundary():
    """Audit reports must survive the worker->parent payload round trip."""
    configs = [
        ExperimentConfig(
            duration_ns=GOLDEN_DURATION_NS, warmup_ns=GOLDEN_WARMUP_NS, seed=seed
        )
        for seed in (1, 2)
    ]
    results = run_many(configs, jobs=2, audit=True)
    assert len(results) == 2
    for result in results:
        assert result.audit_report is not None
        assert result.audit_report.ok, result.audit_report.render()
        assert result.audit_report.checks_run > 20


def test_audit_disables_cache(tmp_path):
    """Audited batches must not read or write the result cache: a cached
    entry carries the audit of the run that produced it, not this one."""
    from repro.core.cache import ResultCache
    from repro.core.runner import RunnerStats

    cache = ResultCache(tmp_path)
    config = ExperimentConfig(duration_ns=msec(1), warmup_ns=msec(1))
    stats = RunnerStats()
    run_many([config], cache=cache, stats=stats, audit=True)
    assert len(cache) == 0
    assert stats.cache_hits == 0 and stats.cache_misses == 0

    # and an unaudited run afterwards still caches normally
    run_many([config], cache=cache, stats=stats)
    assert len(cache) == 1


@pytest.mark.parametrize("figure_name", ["fig3a"])
def test_figure_audit_pipeline_end_to_end(figure_name):
    """The CLI path: configure figures for auditing, generate one panel,
    and check the merged report (the `repro figure fig3a --audit` flow)."""
    from repro.core.audit import merge_reports

    generator = PANELS[figure_name]
    monkey_duration = GOLDEN_DURATION_NS
    original_prepare = figures_base.prepare

    def short_prepare(config):
        prepared = original_prepare(config)
        return prepared.replace(
            duration_ns=monkey_duration, warmup_ns=GOLDEN_WARMUP_NS
        )

    figures_base.prepare = short_prepare
    figures_base.configure(jobs=1, cache=None, audit=True)
    try:
        generator()
        report = merge_reports(figures_base.AUDIT_REPORTS)
    finally:
        figures_base.prepare = original_prepare
        figures_base.configure()
    assert report.checks_run > 0
    assert report.ok, report.render()
