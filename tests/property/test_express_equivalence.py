"""A result is the same four ways it can be obtained, on random configs.

The deleted express lane was checked four ways (its mode square with frame
trains) against the per-event pipeline. The single pipeline has four routes
from a config to a result instead, and every one must agree on the full
exported payload:

1. a direct ``Experiment(config).run()``;
2. :func:`run_many` simulating it in-process (GC paused) on a cache miss;
3. :func:`run_many` serving it from the on-disk result cache on a hit;
4. a ``result_to_dict`` / ``result_from_dict`` round trip of the first.

A mismatch means some number depends on how it was produced — the runner's
collector settings, the cache encoding, or the export schema.
"""

import tempfile

from hypothesis import given, settings

from repro.core.cache import ResultCache
from repro.core.experiment import Experiment
from repro.core.export import result_from_dict, result_to_dict
from repro.core.runner import RunnerStats, run_many

from .configs import experiment_configs


@settings(max_examples=8, deadline=None)
@given(config=experiment_configs())
def test_express_lane_is_observably_identical_four_ways(config):
    direct = result_to_dict(Experiment(config).run())

    with tempfile.TemporaryDirectory() as cache_dir:
        cache = ResultCache(cache_dir)
        cold_stats, warm_stats = RunnerStats(), RunnerStats()
        [simulated] = run_many([config], jobs=1, cache=cache, stats=cold_stats)
        [served] = run_many([config], jobs=1, cache=cache, stats=warm_stats)

    assert (cold_stats.experiments_run, cold_stats.cache_misses) == (1, 1)
    assert (warm_stats.experiments_run, warm_stats.cache_hits) == (0, 1)

    ways = {
        "run_many (simulated)": result_to_dict(simulated),
        "run_many (cache hit)": result_to_dict(served),
        "export round trip": result_to_dict(result_from_dict(direct)),
    }
    for way, payload in ways.items():
        assert payload == direct, way
