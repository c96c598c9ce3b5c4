"""Unit tests for the parallel experiment runner.

The core invariant: a config + seed produces an identical ``result_to_dict``
payload whether simulated in-process, in a worker process, or read back from
the on-disk cache. Durations are kept short so the process-pool paths stay
fast on small CI machines.
"""

import json

import pytest

from repro.config import ExperimentConfig, OptimizationConfig, TrafficPattern
from repro.core.cache import ResultCache, config_cache_key
from repro.core.experiment import Experiment
from repro.core.export import result_to_dict
from repro.core.runner import RunManyError, RunnerStats, resolve_jobs, run_many
from repro.core.sweep import run_labeled, run_sweep
from repro.units import msec


def small(**kwargs) -> ExperimentConfig:
    return ExperimentConfig(duration_ns=msec(2), warmup_ns=msec(1), **kwargs)


def ladder_configs():
    """The Fig-3a incremental-optimization ladder (shortened windows)."""
    return [
        (label, ExperimentConfig(opts=opts, duration_ns=msec(2), warmup_ns=msec(2)))
        for label, opts in OptimizationConfig.incremental_ladder()
    ]


def payloads(results):
    return [json.dumps(result_to_dict(r), sort_keys=True) for r in results]


def test_run_many_matches_direct_experiment():
    config = small()
    direct = result_to_dict(Experiment(config).run())
    via_runner = result_to_dict(run_many([config])[0])
    assert direct == via_runner


def test_run_many_preserves_input_order():
    configs = [small(num_flows=n, pattern=TrafficPattern.ONE_TO_ONE)
               for n in (1, 2, 3)]
    results = run_many(configs, jobs=2)
    for n, result in zip((1, 2, 3), results):
        assert len(result.per_flow_gbps) == n


def test_fig3a_ladder_parallel_matches_sequential():
    """Acceptance: jobs>1 is byte-identical to sequential for the ladder."""
    configs = [config for _, config in ladder_configs()]
    sequential = payloads(run_many(configs, jobs=1))
    parallel = payloads(run_many(configs, jobs=2))
    assert sequential == parallel


def test_fig3a_ladder_second_sweep_is_all_cache_hits(tmp_path):
    """Acceptance: re-running an unchanged sweep runs zero experiments."""
    configs = [config for _, config in ladder_configs()]
    cache = ResultCache(tmp_path)

    cold_stats = RunnerStats()
    cold = payloads(run_many(configs, jobs=2, cache=cache, stats=cold_stats))
    assert cold_stats.experiments_run == len(configs)
    assert cold_stats.cache_hits == 0

    warm_stats = RunnerStats()
    warm = payloads(run_many(configs, jobs=2, cache=cache, stats=warm_stats))
    assert warm_stats.experiments_run == 0
    assert warm_stats.cache_hits == len(configs)
    assert warm == cold


def test_worker_and_cache_results_identical_to_in_process(tmp_path):
    """The determinism invariant across all three execution paths."""
    config = small(seed=7)
    in_process = payloads(run_many([config]))
    worker = payloads(run_many([config, small(seed=8)], jobs=2))[:1]
    cache = ResultCache(tmp_path)
    run_many([config], cache=cache)          # populate
    from_cache = payloads(run_many([config], cache=cache))
    assert in_process == worker == from_cache


def test_same_seed_reruns_identically():
    config = small(seed=3)
    assert payloads(run_many([config])) == payloads(run_many([config]))


def test_stats_accumulate_across_calls(tmp_path):
    cache = ResultCache(tmp_path)
    stats = RunnerStats()
    run_many([small()], cache=cache, stats=stats)
    run_many([small()], cache=cache, stats=stats)
    assert stats.experiments_run == 1
    assert stats.cache_hits == 1
    assert stats.cache_misses == 1


def test_resolve_jobs():
    assert resolve_jobs(4) == 4
    assert resolve_jobs(None) >= 1
    with pytest.raises(ValueError):
        resolve_jobs(0)


def test_run_many_empty_batch():
    assert run_many([]) == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_config_does_not_discard_the_batch(tmp_path, jobs):
    """One raising config still lets the other two run and be cached, and
    the error names the failing config by cache key."""
    good = [small(seed=1), small(seed=2)]
    bad = small(num_flows=0)  # rejected by validate() inside the worker
    cache = ResultCache(tmp_path)
    stats = RunnerStats()
    with pytest.raises(RunManyError) as info:
        run_many([good[0], bad, good[1]], jobs=jobs, cache=cache, stats=stats)
    assert [key for key, _ in info.value.failures] == [config_cache_key(bad)]
    assert config_cache_key(bad) in str(info.value)
    assert isinstance(info.value.__cause__, ValueError)
    assert stats.experiments_run == 3

    warm = RunnerStats()
    cached = run_many(good, jobs=jobs, cache=cache, stats=warm)
    assert warm.cache_hits == 2 and warm.experiments_run == 0
    assert payloads(cached) == payloads(run_many(good))


def test_run_sweep_parallel_matches_sequential():
    def make(n):
        return small(num_flows=n, pattern=TrafficPattern.ONE_TO_ONE)

    sequential = run_sweep((1, 2), make)
    parallel = run_sweep((1, 2), make, jobs=2)
    assert [v for v, _ in parallel] == [1, 2]
    assert payloads([r for _, r in sequential]) == payloads(
        [r for _, r in parallel]
    )


def test_run_labeled_returns_all_labels():
    out = run_labeled([("a", small(seed=1)), ("b", small(seed=2))], jobs=2)
    assert set(out) == {"a", "b"}
    assert out["a"].total_throughput_gbps > 0
