import pytest
from repro.core.cache import config_cache_key
from repro.golden import harvest_figure_configs

from bench.workloads import WORKLOADS, build


def keys(name, seed):
    return [config_cache_key(config) for config in build(name, seed)]


@pytest.fixture(scope="module")
def harvested():
    return {config_cache_key(config) for config in harvest_figure_configs()}


def test_same_seed_builds_identical_configs():
    for name in WORKLOADS:
        assert keys(name, 3) == keys(name, 3), name


def test_seed_changes_every_lossy_config():
    first, second = keys("lossy", 1), keys("lossy", 2)
    assert len(first) == len(second)
    assert not set(first) & set(second)


def test_seed_reaches_every_config():
    for name in WORKLOADS:
        assert 1 not in {config.seed for config in build(name, 5)}, name


def test_seed_one_runs_the_figures_own_configs(harvested):
    for name in ("bulk", "rpc", "all_to_all"):
        own = [c for c in build(name, 1) if c.seed == 1]
        assert own, name
        missing = {config_cache_key(c) for c in own} - harvested
        assert not missing, f"{name}: {len(missing)} configs no figure submits"


def test_every_config_is_a_figure_config_up_to_its_seed(harvested):
    for name in WORKLOADS:
        for config in build(name, 7):
            assert config_cache_key(config.replace(seed=1, trace=False)) in harvested, name


def test_bulk_traced_is_bulk_with_tracing():
    bulk, traced = build("bulk", 1), build("bulk_traced", 1)
    assert [c.replace(trace=True) for c in bulk] == traced
