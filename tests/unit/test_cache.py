"""Unit tests for the L3/DCA cache model."""

import hashlib
import json
import random

import pytest

from repro.hardware.cache import DcaRegion, L3CacheModel


def make_region(capacity=1000, dilution=0.25, enabled=True):
    return DcaRegion(0, capacity, dilution, enabled, rng=random.Random(42))


def test_write_then_consume_hits():
    dca = make_region()
    dca.dma_write(1, 100)
    hit, miss = dca.consume(1, 100)
    assert (hit, miss) == (100, 0)


def test_consume_unknown_region_misses():
    dca = make_region()
    hit, miss = dca.consume(99, 50)
    assert (hit, miss) == (0, 50)


def test_consume_removes_region():
    dca = make_region()
    dca.dma_write(1, 100)
    dca.consume(1, 100)
    assert dca.occupancy == 0
    hit, _ = dca.consume(1, 100)
    assert hit == 0


def test_discard_removes_without_consuming():
    dca = make_region()
    dca.dma_write(1, 100)
    dca.discard(1)
    assert dca.occupancy == 0


def test_disabled_region_never_holds_data():
    dca = make_region(enabled=False)
    dca.dma_write(1, 100)
    assert dca.occupancy == 0
    assert dca.consume(1, 100) == (0, 100)


def test_eviction_under_sustained_overflow():
    dca = make_region(capacity=1000)
    for region_id in range(100):
        dca.dma_write(region_id, 100)
    # 10x capacity written: most must have been evicted
    assert dca.occupancy <= 1000 + 100
    assert dca.bytes_evicted > 0


def test_hazard_eviction_is_partial_below_capacity_pressure():
    """A lightly-loaded region should keep most of its data."""
    dca = make_region(capacity=10_000)
    for region_id in range(10):
        dca.dma_write(region_id, 100)  # 10% occupancy
    hits = sum(dca.consume(region_id, 100)[0] for region_id in range(10))
    assert hits >= 800  # at most light hazard eviction


def test_effective_capacity_without_footprint_is_full():
    dca = make_region(capacity=1000)
    dca.set_descriptor_footprint(500)
    assert dca.effective_capacity == 1000


def test_effective_capacity_diluted_by_large_footprint():
    dca = make_region(capacity=1000, dilution=1.0)
    dca.set_descriptor_footprint(4000)
    assert dca.effective_capacity == 250


def test_dilution_exponent_softens_effect():
    hard = make_region(capacity=1000, dilution=1.0)
    soft = make_region(capacity=1000, dilution=0.25)
    hard.set_descriptor_footprint(16_000)
    soft.set_descriptor_footprint(16_000)
    assert soft.effective_capacity > hard.effective_capacity


def test_lro_growth_accumulates_into_one_region():
    dca = make_region()
    dca.dma_write(1, 100)
    dca.dma_write(1, 100)  # LRO appends to the same region
    hit, miss = dca.consume(1, 200)
    assert hit == 200 and miss == 0


#: SHA-256 of the per-operation log of the seeded stream below, computed with
#: the earlier bookkeeping (a region -> size dict beside the swap-remove key
#: list). It pins every random victim, and their order.
VICTIM_STREAM_DIGEST = "e7ce978f893c69313ef24d1a182c2e227b0b99ee13112adb3c5030b01769f670"


def test_victim_sequence_is_pinned_on_a_seeded_stream():
    stream = random.Random(20261019)
    dca = DcaRegion(0, 200_000, rng=random.Random(7))
    dca.set_descriptor_footprint(400_000)
    log = []
    next_region = 0
    for _ in range(3000):
        op = stream.random()
        if op < 0.6:
            next_region += 1
            dca.dma_write(next_region, stream.randint(1, 9000))
        elif op < 0.7 and next_region:  # LRO-style growth of a region
            dca.dma_write(stream.randint(1, next_region), stream.randint(1, 9000))
        elif op < 0.95 and next_region:
            log.append(dca.consume(stream.randint(1, next_region), 9000))
        elif next_region:
            dca.discard(stream.randint(1, next_region))
        log.append((dca.occupancy, dca.bytes_evicted))
    assert dca.bytes_evicted > 0  # hazard and backstop evictions both occur
    document = json.dumps([log, sorted(dca._key_index)])
    assert hashlib.sha256(document.encode()).hexdigest() == VICTIM_STREAM_DIGEST


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        DcaRegion(0, 0)


def test_sender_miss_rate_grows_with_working_set():
    model = L3CacheModel(
        num_nodes=2,
        l3_bytes=20 * 1024 * 1024,
        dca_capacity_bytes=3 * 1024 * 1024,
        nic_node=0,
        dca_enabled=True,
        dilution_exponent=0.25,
    )
    baseline = model.sender_miss_rate(0)
    model.register_working_set(0, 10 * 1024 * 1024)
    loaded = model.sender_miss_rate(0)
    assert loaded > baseline


def test_sender_miss_rate_capped():
    model = L3CacheModel(2, 1024, 512, 0, True, 0.25)
    model.register_working_set(0, 10**9)
    assert model.sender_miss_rate(0) <= 0.95
