"""Parallel experiment runner with optional persistent result caching.

Every experiment is an independent, deterministic function of its config, so
a batch of configs can fan out across a process pool with no coordination:
``run_many([c1, c2, ...], jobs=8)`` returns results in input order, identical
(via :func:`result_to_dict`) to running each config sequentially in-process.

Workers ship results back as :func:`result_to_dict` payloads and the parent
rebuilds them with :func:`result_from_dict` — the same lossless round-trip
the on-disk cache uses — so in-process, worker-process, and cache-served
results are byte-identical by construction.

Each result is cached the moment it arrives, so a config that raises costs
only its own experiment: the rest of the batch still runs and is cached, and
:class:`RunManyError` then names every failing config by cache key. A worker
that dies outright (``os._exit``, a signal, the OOM killer) breaks its whole
pool; the configs left unfinished then run again in fresh one-worker pools,
where the config running when a pool breaks is known, and only a config that
has broken a pool twice is reported as failed.
"""

from __future__ import annotations

import gc
import os
from dataclasses import dataclass
from functools import partial
from typing import Iterable, List, Optional, Tuple

from ..config import ExperimentConfig
from .cache import ResultCache, config_cache_key
from .experiment import Experiment
from .export import result_from_dict, result_to_dict
from .results import ExperimentResult


@dataclass
class RunnerStats:
    """Observable counters for one or more :func:`run_many` calls."""

    experiments_run: int = 0   # actual Experiment(...).run() invocations
    cache_hits: int = 0
    cache_misses: int = 0
    #: Engine events fired / cancelled, summed over every experiment actually
    #: simulated (cache hits contribute nothing — no engine ran).
    events_fired: int = 0
    events_cancelled: int = 0


class RunManyError(RuntimeError):
    """One or more configs of a :func:`run_many` batch raised.

    Raised after every other config has run and been cached. ``failures``
    holds ``(cache key, exception)`` pairs in input order; the first
    exception is also chained as ``__cause__``.
    """

    def __init__(self, failures: List[Tuple[str, BaseException]]) -> None:
        self.failures = failures
        lines = [f"{len(failures)} experiment(s) failed:"]
        lines.extend(
            f"  {key}: {type(exc).__name__}: {exc}" for key, exc in failures
        )
        super().__init__("\n".join(lines))


#: Payload side-channel key carrying per-run engine statistics from workers.
#: Popped before the result round-trip, never persisted to the cache.
_ENGINE_STATS_KEY = "_engine_stats"


def _execute(config: ExperimentConfig, audit: bool = False) -> dict:
    """Worker entry point: simulate one config, return its flat payload.

    Module-level (hence picklable) and dict-valued so the pool never has to
    pickle live simulator objects back to the parent. Audit reports travel
    inside the payload (see ``result_to_dict``), so audited runs work across
    the process boundary too.
    """
    # The simulator allocates millions of short-lived tracked objects (frames,
    # records, jobs, charge batches) and keeps no cyclic garbage on the hot
    # path, so the generational collector only costs wall time here: pause it
    # for the duration of the run. Refcounting still reclaims everything hot;
    # the (acyclic-but-tracked) experiment graph dies when the payload is
    # extracted and the collector resumes for everything outside the run.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        experiment = Experiment(config, audit=audit)
        payload = result_to_dict(experiment.run())
    finally:
        if gc_was_enabled:
            gc.enable()
    payload[_ENGINE_STATS_KEY] = {
        "events_fired": experiment.engine.events_fired,
        "events_cancelled": experiment.engine.events_cancelled,
    }
    return payload


def resolve_jobs(jobs: Optional[int]) -> int:
    """``None`` means one worker per CPU; otherwise ``jobs`` must be >= 1."""
    if jobs is None:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def run_many(
    configs: Iterable[ExperimentConfig],
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    stats: Optional[RunnerStats] = None,
    audit: bool = False,
) -> List[ExperimentResult]:
    """Run every config, in input order, fanning cache misses out to workers.

    ``jobs=1`` runs in-process (no pool spawn cost); ``jobs=N`` uses up to N
    worker processes; ``jobs=None`` uses one per CPU. With a ``cache``, hits
    skip simulation entirely and fresh results are persisted as each one
    completes.

    A config that raises does not stop the batch: every other config still
    runs and is cached, then :class:`RunManyError` names each failing config
    by cache key.

    ``audit=True`` runs every experiment with the conservation auditor and
    disables the cache for the batch — cached entries were produced by
    *earlier* runs, so serving one would report stale (or absent) audits
    instead of checking the current code.
    """
    configs = list(configs)
    jobs = resolve_jobs(jobs)
    stats = stats if stats is not None else RunnerStats()
    if audit:
        cache = None

    results: List[Optional[ExperimentResult]] = [None] * len(configs)
    miss_indices: List[int] = []
    if cache is not None:
        for index, config in enumerate(configs):
            cached = cache.get(config)
            if cached is not None:
                results[index] = cached
                stats.cache_hits += 1
            else:
                miss_indices.append(index)
                stats.cache_misses += 1
    else:
        miss_indices = list(range(len(configs)))

    failures: List[Tuple[int, BaseException]] = []

    def collect(index: int, payload: dict) -> None:
        engine_stats = payload.pop(_ENGINE_STATS_KEY, None)
        if engine_stats is not None:
            stats.events_fired += engine_stats["events_fired"]
            stats.events_cancelled += engine_stats["events_cancelled"]
        result = result_from_dict(payload)
        if cache is not None:
            cache.put(configs[index], result)
        results[index] = result

    execute = partial(_execute, audit=audit)
    if len(miss_indices) > 1 and jobs > 1:
        # imported here so single-job runs skip the multiprocessing machinery
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        def run_pool(indices: List[int], workers: int) -> List[Tuple[int, BaseException]]:
            """Run ``indices`` in one pool; return those a broken pool left
            unfinished, in submission order, with their errors."""
            unfinished: List[Tuple[int, BaseException]] = []
            with ProcessPoolExecutor(max_workers=min(workers, len(indices))) as pool:
                futures = {pool.submit(execute, configs[index]): index for index in indices}
                for future in as_completed(futures):
                    index = futures[future]
                    try:
                        payload = future.result()
                    except BrokenProcessPool as exc:
                        unfinished.append((index, exc))
                    except Exception as exc:  # one failing config fails only itself
                        failures.append((index, exc))
                    else:
                        collect(index, payload)
            unfinished.sort(key=lambda entry: entry[0])
            return unfinished

        suspects = run_pool(miss_indices, jobs)
        # Which worker died is unknown, so the survivors of a broken pool
        # run again one at a time: a one-worker pool runs its configs in
        # submission order, so when it breaks, its first unfinished config
        # is the one that broke it, for the second time.
        while suspects:
            left = run_pool([index for index, _ in suspects], 1)
            if left:
                failures.append(left[0])
                left = left[1:]
            suspects = left
    else:
        for index in miss_indices:
            try:
                payload = execute(configs[index])
            except Exception as exc:  # one failing config fails only itself
                failures.append((index, exc))
            else:
                collect(index, payload)
    stats.experiments_run += len(miss_indices)

    if failures:
        failures.sort(key=lambda failure: failure[0])
        error = RunManyError(
            [(config_cache_key(configs[index]), exc) for index, exc in failures]
        )
        raise error from failures[0][1]
    return results  # type: ignore[return-value]  # every slot is filled above
