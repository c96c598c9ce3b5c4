"""Unit tests for content-addressed cache keying and the on-disk store."""

import dataclasses
import json
import shutil

import pytest

from repro.config import (
    ExperimentConfig,
    HostConfig,
    LinkConfig,
    NicConfig,
    NumaPolicy,
    OptimizationConfig,
    SteeringMode,
    TcpConfig,
    TrafficPattern,
    WorkloadConfig,
)
from repro.core import cache as cache_module
from repro.core.cache import ResultCache, config_cache_key, source_digest
from repro.units import kb

from .test_results import make_result

key = config_cache_key


def test_key_is_stable_and_shared_by_equal_configs():
    assert key(ExperimentConfig()) == key(ExperimentConfig())
    config = ExperimentConfig(seed=5)
    assert key(config.replace()) == key(config)


def test_every_top_level_field_change_changes_the_key():
    base = ExperimentConfig()
    variants = [
        base.replace(pattern=TrafficPattern.INCAST),
        base.replace(num_flows=2),
        base.replace(duration_ns=base.duration_ns + 1),
        base.replace(warmup_ns=base.warmup_ns + 1),
        base.replace(seed=2),
        base.replace(opts=OptimizationConfig.none()),
        base.replace(nic=NicConfig(rx_descriptors=128)),
        base.replace(host=HostConfig(dca_enabled=False)),
        base.replace(tcp=TcpConfig(rx_buffer_bytes=kb(3200))),
        base.replace(link=LinkConfig(loss_rate=0.001, has_switch=True)),
        base.replace(workload=WorkloadConfig(rpc_size_bytes=1024)),
        base.replace(numa_policy=NumaPolicy.NIC_REMOTE),
        base.replace(worst_case_irq_mapping=False),
        base.replace(steering=SteeringMode.RFS),
        base.replace(cost_overrides={"syscall_cycles": 600.0}),
        base.replace(trace=True),
    ]
    keys = [key(base)] + [key(v) for v in variants]
    assert len(set(keys)) == len(keys), "some field change did not change the key"
    # Each variant changes one field, and together they change every field
    # the dataclass declares: a new field must join the list to pass.
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    changed = [
        [name for name in fields if getattr(v, name) != getattr(base, name)]
        for v in variants
    ]
    assert all(len(names) == 1 for names in changed)
    assert {names[0] for names in changed} == set(fields)


def test_nested_field_change_changes_the_key():
    base = ExperimentConfig()
    jumbo_off = base.replace(
        opts=OptimizationConfig(tso_gro=True, jumbo=False, arfs=True)
    )
    assert key(base) != key(jumbo_off)


def test_cost_override_value_change_changes_the_key():
    a = ExperimentConfig(cost_overrides={"syscall_cycles": 600.0})
    b = ExperimentConfig(cost_overrides={"syscall_cycles": 601.0})
    assert key(a) != key(b)


def test_canonical_dict_is_json_stable():
    canonical = ExperimentConfig().to_canonical_dict()
    assert json.loads(json.dumps(canonical)) == canonical
    assert canonical["opts"]["jumbo"] is True
    assert canonical["pattern"] == "single"


def test_put_get_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    config = ExperimentConfig()
    result = make_result(total=12.5)
    cache.put(config, result)
    loaded = cache.get(config)
    assert loaded is not None
    assert loaded.total_throughput_gbps == 12.5
    assert cache.hits == 1 and cache.misses == 0


def test_get_miss_on_unknown_config(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get(ExperimentConfig()) is None
    assert cache.misses == 1


def test_corrupt_entry_is_treated_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    config = ExperimentConfig()
    path = cache.put(config, make_result())
    path.write_text("{not json")
    assert cache.get(config) is None


def test_clear_and_len(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(ExperimentConfig(), make_result())
    cache.put(ExperimentConfig(seed=2), make_result())
    assert len(cache) == 2
    assert cache.clear() == 2
    assert len(cache) == 0
    assert cache.get(ExperimentConfig()) is None


def _plant_tmp(cache, config, age_s=0.0):
    """Create an orphaned write-then-rename temp file next to config's entry."""
    import os
    import time

    path = cache.path_for(cache.key(config))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp.99999")
    tmp.write_text("{half-written")
    if age_s:
        old = time.time() - age_s
        os.utime(tmp, (old, old))
    return tmp


def test_put_sweeps_stale_tmp_files_but_spares_fresh_ones(tmp_path):
    """Regression: temp files orphaned by a writer killed between write and
    rename accumulated forever. put() now reclaims stale ones in the shard it
    touches, without yanking a concurrent writer's fresh temp file."""
    from repro.core.cache import STALE_TMP_SECONDS

    cache = ResultCache(tmp_path)
    config = ExperimentConfig()
    stale = _plant_tmp(cache, config, age_s=STALE_TMP_SECONDS + 60)
    fresh = _plant_tmp(cache, config.replace(seed=7))  # same shard iff same prefix
    # Plant the fresh one in the same shard as `config` so one put() sees both.
    fresh = fresh.rename(stale.parent / "concurrent.tmp.12345")

    cache.put(config, make_result())
    assert not stale.exists(), "stale orphan should be swept by put()"
    assert fresh.exists(), "a fresh (possibly in-flight) temp must survive"
    assert cache.get(config) is not None  # the entry itself is intact


def test_clear_removes_tmp_files_of_any_age(tmp_path):
    cache = ResultCache(tmp_path)
    config = ExperimentConfig()
    cache.put(config, make_result())
    fresh = _plant_tmp(cache, config.replace(seed=3))  # age 0: still removed
    assert cache.clear() == 1
    assert not fresh.exists()
    assert len(cache) == 0


# --- results keyed by the code that made them ---------------------------------


@pytest.fixture
def package_copy(tmp_path):
    """A copy of the ``repro`` package's source, outside the package."""
    copy = tmp_path / "repro"
    shutil.copytree(
        cache_module.PACKAGE_ROOT, copy, ignore=shutil.ignore_patterns("__pycache__")
    )
    return copy


def test_editing_a_cost_constant_moves_the_code_digest(package_copy):
    before = source_digest(package_copy)
    assert before == cache_module.code_digest()
    model = package_copy / "costs" / "model.py"
    text = model.read_text()
    assert "syscall_cycles: float = 500.0" in text
    model.write_text(text.replace("syscall_cycles: float = 500.0", "syscall_cycles: float = 501.0"))
    assert source_digest(package_copy) != before


def test_bytecode_and_files_outside_the_package_leave_the_digest(package_copy):
    before = source_digest(package_copy)
    pycache = package_copy / "core" / "__pycache__"
    pycache.mkdir()
    (pycache / "cache.cpython-311.pyc").write_bytes(b"\x00compiled")
    (package_copy.parent / "outside.py").write_text("X = 1\n")
    assert source_digest(package_copy) == before


def test_entry_of_other_code_is_a_miss_and_stays_on_disk(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(cache_module, "code_digest", lambda: "0" * 64)
        stale = cache.put(ExperimentConfig(), make_result())
    assert cache.get(ExperimentConfig()) is None
    assert stale.exists()
    assert len(cache) == 0


def test_config_identity_ignores_the_code_digest(monkeypatch):
    config = ExperimentConfig()
    before = key(config)
    monkeypatch.setattr(cache_module, "code_digest", lambda: "0" * 64)
    assert key(config) == before


def test_entry_records_the_code_digest(tmp_path):
    path = ResultCache(tmp_path).put(ExperimentConfig(), make_result())
    entry = json.loads(path.read_text())
    assert entry["code_digest"] == cache_module.code_digest()
    assert path.parent.parent.name == cache_module.code_digest()
