"""Property-based tests for DCA cache invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cache import DcaRegion

operations = st.lists(
    st.tuples(
        st.sampled_from(["write", "consume", "discard"]),
        st.integers(min_value=0, max_value=30),      # region id
        st.integers(min_value=1, max_value=20_000),  # bytes
    ),
    max_size=200,
)


@given(ops=operations, capacity=st.integers(min_value=1000, max_value=100_000))
@settings(max_examples=100, deadline=None)
def test_occupancy_always_within_bounds(ops, capacity):
    dca = DcaRegion(0, capacity, rng=random.Random(0))
    for kind, region_id, nbytes in ops:
        if kind == "write":
            dca.dma_write(region_id, nbytes)
        elif kind == "consume":
            dca.consume(region_id, nbytes)
        else:
            dca.discard(region_id)
        assert dca.occupancy >= 0
        # hard capacity backstop (one in-flight region may exceed it briefly
        # only if it is the sole resident region)
        assert dca.occupancy <= max(dca.effective_capacity, max(
            dca._sizes, default=0))


@given(ops=operations)
@settings(max_examples=100, deadline=None)
def test_hits_never_exceed_consumed_bytes(ops):
    dca = DcaRegion(0, 50_000, rng=random.Random(1))
    for kind, region_id, nbytes in ops:
        if kind == "write":
            dca.dma_write(region_id, nbytes)
        elif kind == "consume":
            hit, miss = dca.consume(region_id, nbytes)
            assert hit + miss == nbytes
            assert hit >= 0 and miss >= 0
        else:
            dca.discard(region_id)


@given(ops=operations)
@settings(max_examples=50, deadline=None)
def test_internal_index_consistent(ops):
    dca = DcaRegion(0, 50_000, rng=random.Random(2))
    for kind, region_id, nbytes in ops:
        if kind == "write":
            dca.dma_write(region_id, nbytes)
        elif kind == "consume":
            dca.consume(region_id, nbytes)
        else:
            dca.discard(region_id)
        assert len(dca._keys) == len(dca._sizes) == len(dca._key_index)
        assert all(dca._keys[index] == region for region, index in dca._key_index.items())
        assert dca.occupancy == sum(dca._sizes)
