"""Golden-digest regression test: the simulator's observable behaviour.

Compares every unique figure-experiment config against the committed
reference in ``tests/golden/figure_digests.json``: the persistent-cache key
of the full-window config must be unchanged (cache compatibility across the
engine swap) and the SHA-256 digest of the canonical ``result_to_dict``
payload of a shortened run must be byte-identical (no float anywhere in any
result moved). The reference was generated with the original heap engine,
so this test is the proof that every later engine and hot-path rewrite is
behaviour-preserving.

Regenerate after an intentional behaviour change::

    PYTHONPATH=src python tools/gen_golden_digests.py
"""

import json
from pathlib import Path

import pytest

from repro.core.cache import CACHE_SCHEMA_VERSION, config_cache_key
from repro.golden import (
    GOLDEN_DURATION_NS,
    GOLDEN_WARMUP_NS,
    digest_config,
    harvest_figure_configs,
)

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" / "figure_digests.json"


@pytest.fixture(scope="module")
def golden_document():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def harvested_configs():
    return harvest_figure_configs()


def test_golden_file_matches_current_schema(golden_document):
    assert golden_document["cache_schema_version"] == CACHE_SCHEMA_VERSION
    assert golden_document["duration_ns"] == GOLDEN_DURATION_NS
    assert golden_document["warmup_ns"] == GOLDEN_WARMUP_NS


def test_all_figure_configs_are_pinned(golden_document, harvested_configs):
    """Every config a figure submits has a golden entry, and vice versa."""
    current_keys = {config_cache_key(config) for config in harvested_configs}
    golden_keys = set(golden_document["digests"])
    assert current_keys == golden_keys
    assert len(golden_keys) >= 100


def test_result_digests_are_byte_identical(golden_document, harvested_configs):
    """Run every pinned config and compare result digests against golden."""
    digests = golden_document["digests"]
    mismatches = []
    for config in harvested_configs:
        key, digest = digest_config(config)
        expected = digests[key]["result_sha256"]
        if digest != expected:
            mismatches.append((digests[key]["summary"], expected, digest))
    assert not mismatches, (
        f"{len(mismatches)} of {len(harvested_configs)} configs diverged "
        f"from golden digests; first: {mismatches[0]}"
    )
