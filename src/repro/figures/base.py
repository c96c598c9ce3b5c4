"""Shared plumbing for the figure generators.

Simulated durations are short (milliseconds) because steady-state rates
converge quickly; warmups are sized per scenario so receive-buffer autotuning
and queue fill transients complete before measurement (incast with many
autotuned flows needs the longest warmup).

Every panel submits its configs through :func:`run_all`, which hands them to
the module-level ``run_many``. :func:`harvest_configs` runs the panels
against a recorder standing in for it, to learn which configs they submit.
:func:`render` (what ``repro figure``, ``repro trace`` and the claim tests
use) runs those configs as one deduplicated batch, then replays each panel
against a lookup into that batch, so a config that several panels read is
simulated, or fetched from the result cache, once.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..config import ExperimentConfig, TrafficPattern
from ..core.cache import ResultCache, config_cache_key
from ..core.experiment import Experiment
from ..core.report import Table
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

#: Run every experiment with per-stage latency tracing (``repro trace``).
#: Part of the config, and hence of the cache key.
_TRACE: bool = False


def configure(trace: bool = False) -> None:
    """Trace (or stop tracing) every subsequent figure experiment."""
    global _TRACE
    _TRACE = trace


def prepare(config: ExperimentConfig) -> ExperimentConfig:
    """Apply the figure-standard duration/warmup (and tracing) to
    ``config``."""
    return config.replace(
        duration_ns=DURATION_NS, warmup_ns=WARMUP_NS[config.pattern], trace=_TRACE
    )


def run_all(configs: Iterable[ExperimentConfig]) -> List[ExperimentResult]:
    """Run a figure's whole batch of configs with figure-standard windows,
    results in input order.

    Called outside :func:`render` or :func:`harvest_configs`, it simulates
    in-process and uncached.
    """
    return run_many([prepare(config) for config in configs])


@contextmanager
def _answering(
    answer: Callable[[ExperimentConfig], ExperimentResult],
) -> Iterator[List[Tuple[ExperimentConfig, ExperimentResult]]]:
    """Stand ``answer`` in for ``run_many`` while the block runs; yields the
    ``(config, result)`` pairs it answers, in submission order."""
    global run_many
    answered: List[Tuple[ExperimentConfig, ExperimentResult]] = []

    def stand_in(configs):
        results = [answer(config) for config in configs]
        answered.extend(zip(configs, results))
        return results

    original, run_many = run_many, stand_in
    try:
        yield answered
    finally:
        run_many = original


def harvest_configs(names: Optional[Iterable[str]] = None) -> List[ExperimentConfig]:
    """Every config the panels in ``names`` (default: every panel) submit,
    deduplicated by cache key, in sorted-panel order.

    Each panel runs against a stand-in for ``run_many`` that answers every
    config with one tiny real result, so nothing is simulated at figure
    length. Raises ``KeyError`` for an unknown panel name.
    """
    from . import PANELS

    generators = [PANELS[name] for name in sorted(PANELS if names is None else names)]
    tiny = Experiment(ExperimentConfig(duration_ns=msec(1), warmup_ns=msec(1))).run()
    with _answering(lambda config: tiny) as answered:
        for generator in generators:
            generator()

    unique: Dict[str, ExperimentConfig] = {}
    for config, _ in answered:
        unique.setdefault(config_cache_key(config), config)
    return list(unique.values())


def render(
    names: Iterable[str],
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    audit: bool = False,
    trace: bool = False,
    stats: Optional[RunnerStats] = None,
) -> Tuple[Dict[str, Tuple[Table, List[ExperimentResult]]], List[ExperimentResult]]:
    """Render the panels in ``names`` from one deduplicated batch.

    Harvests every config the panels submit, runs them all in one
    ``run_many`` call (``jobs``, ``cache``, ``stats`` and ``audit`` go to
    it), then replays each panel against a lookup into that batch. Returns
    ``(panels, batch)``: panel name -> ``(table, results it read)`` in the
    order of ``names``, and the batch's results, one per unique config. A
    config missing from the batch raises ``KeyError``.
    """
    from . import PANELS

    names = list(names)
    traced = _TRACE
    configure(trace=trace)
    try:
        configs = harvest_configs(names)
        results = run_many(configs, jobs=jobs, cache=cache, stats=stats, audit=audit)
        batch = {config_cache_key(c): r for c, r in zip(configs, results)}
        panels = {}
        for name in names:
            with _answering(lambda config: batch[config_cache_key(config)]) as answered:
                table = PANELS[name]()
            panels[name] = (table, [result for _, result in answered])
    finally:
        configure(trace=traced)
    return panels, results


def pct(fraction: float) -> str:
    return f"{100 * fraction:.0f}%"
