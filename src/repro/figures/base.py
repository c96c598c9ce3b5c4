"""Shared plumbing for the figure generators.

Simulated durations are short (milliseconds) because steady-state rates
converge quickly; warmups are sized per scenario so receive-buffer autotuning
and queue fill transients complete before measurement (incast with many
autotuned flows needs the longest warmup).

All figure experiments flow through :func:`run_all`, which hands the batch to
:func:`repro.core.runner.run_many`. The module-level runtime (set by
``repro figure --jobs/--cache-dir`` via :func:`configure`) decides how many
worker processes to use and whether results come from / go to the persistent
result cache; the default (one process, no cache) matches the historical
sequential behaviour exactly.

:func:`harvest_configs` is the one way to learn which configs the panels
submit: it runs them against a recorder standing in for ``run_many``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..config import ExperimentConfig, TrafficPattern
from ..core.cache import ResultCache, config_cache_key
from ..core.experiment import Experiment
from ..core.results import ExperimentResult
from ..core.runner import RunnerStats, run_many
from ..units import msec

#: Measurement window used by all figures.
DURATION_NS = msec(8)

#: Warmup per traffic pattern (queue-fill transients differ).
WARMUP_NS = {
    TrafficPattern.SINGLE: msec(10),
    TrafficPattern.ONE_TO_ONE: msec(12),
    TrafficPattern.INCAST: msec(40),
    TrafficPattern.OUTCAST: msec(12),
    TrafficPattern.ALL_TO_ALL: msec(12),
    TrafficPattern.RPC_INCAST: msec(12),
    TrafficPattern.MIXED: msec(12),
}

#: Process-pool width for figure batches (1 = in-process, None = per-CPU).
_JOBS: Optional[int] = 1
#: Shared result cache, or None to always simulate.
_CACHE: Optional[ResultCache] = None
#: Run every experiment with the conservation auditor (disables the cache).
_AUDIT: bool = False
#: Run every experiment with per-stage latency tracing (``repro trace``).
#: Part of the config, and hence of the cache key.
_TRACE: bool = False
#: Counters accumulated across every figure run since the last reset.
STATS = RunnerStats()
#: Audit reports collected from audited figure runs since the last configure.
AUDIT_REPORTS: List = []
#: Trace reports collected from traced figure runs since the last configure.
TRACE_REPORTS: List = []


def configure(
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    audit: bool = False,
    trace: bool = False,
) -> None:
    """Set the runner used by every subsequent figure generation."""
    global _JOBS, _CACHE, _AUDIT, _TRACE
    _JOBS = jobs
    _CACHE = cache
    _AUDIT = audit
    _TRACE = trace
    AUDIT_REPORTS.clear()
    TRACE_REPORTS.clear()


def prepare(config: ExperimentConfig) -> ExperimentConfig:
    """Apply the figure-standard duration/warmup (and tracing) to
    ``config``."""
    return config.replace(
        duration_ns=DURATION_NS, warmup_ns=WARMUP_NS[config.pattern], trace=_TRACE
    )


def run_all(configs: Iterable[ExperimentConfig]) -> List[ExperimentResult]:
    """Run a figure's whole batch of configs with figure-standard windows.

    Results come back in input order; independent configs fan out across the
    configured worker pool and are served from the result cache when warm.
    """
    prepared = [prepare(config) for config in configs]
    results = run_many(prepared, jobs=_JOBS, cache=_CACHE, stats=STATS, audit=_AUDIT)
    if _AUDIT:
        AUDIT_REPORTS.extend(
            result.audit_report for result in results
            if result.audit_report is not None
        )
    if _TRACE:
        TRACE_REPORTS.extend(
            result.trace for result in results if result.trace is not None
        )
    return results


def harvest_configs(names: Optional[Iterable[str]] = None) -> List[ExperimentConfig]:
    """Every config the panels in ``names`` (default: every panel) submit,
    deduplicated by cache key, in sorted-panel order.

    Each panel runs against a recorder standing in for ``run_many`` that
    answers every config with one tiny real result, so nothing is simulated
    at figure length. Raises ``KeyError`` for an unknown panel name.
    """
    global run_many
    from . import PANELS

    generators = [PANELS[name] for name in sorted(PANELS if names is None else names)]
    captured: List[ExperimentConfig] = []
    stand_in = Experiment(ExperimentConfig(duration_ns=msec(1), warmup_ns=msec(1))).run()

    def recorder(configs, **kwargs):
        configs = list(configs)
        captured.extend(configs)
        return [stand_in] * len(configs)

    original, run_many = run_many, recorder
    try:
        for generator in generators:
            generator()
    finally:
        run_many = original

    unique: Dict[str, ExperimentConfig] = {}
    for config in captured:
        unique.setdefault(config_cache_key(config), config)
    return list(unique.values())


def pct(fraction: float) -> str:
    return f"{100 * fraction:.0f}%"
