"""Property-based tests for GRO invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costs.calibration import default_cost_model
from repro.kernel.gro import GroEngine

from ..unit.test_gro import feed, frame_record


#: streams of (flow, size) tuples; sequence numbers are made contiguous
#: per flow so merging is possible but interleaving is arbitrary.
streams = st.lists(
    st.tuples(st.integers(min_value=1, max_value=5),
              st.integers(min_value=100, max_value=9000)),
    max_size=150,
)


def run_gro(stream, enabled=True):
    """Feed the stream to GRO as one NAPI run, then end the poll."""
    gro = GroEngine(default_cost_model(), enabled=enabled)
    next_seq = {}
    records = []
    for flow, size in stream:
        seq = next_seq.get(flow, 0)
        next_seq[flow] = seq + size
        records.append(frame_record(flow, seq, size, region=(flow, seq), pages=1))
    _, out = feed(gro, *records)
    _, flushed = gro.flush_all()
    out.extend(flushed)
    return sum(size for _, size in stream), out


@given(stream=streams)
@settings(max_examples=100, deadline=None)
def test_bytes_conserved_through_gro(stream):
    total_in, out = run_gro(stream)
    assert sum(skb.payload_bytes for skb in out) == total_in


@given(stream=streams)
@settings(max_examples=100, deadline=None)
def test_merged_skbs_are_seq_contiguous_per_flow(stream):
    _, out = run_gro(stream)
    by_flow = {}
    for skb in out:
        by_flow.setdefault(skb.flow_id, []).append(skb)
    for skbs in by_flow.values():
        skbs.sort(key=lambda s: s.seq)
        expected = 0
        for skb in skbs:
            assert skb.seq == expected
            expected = skb.end_seq


@given(stream=streams)
@settings(max_examples=50, deadline=None)
def test_merge_never_exceeds_64kb(stream):
    _, out = run_gro(stream)
    assert all(skb.payload_bytes <= 64 * 1024 for skb in out)


@given(stream=streams)
@settings(max_examples=50, deadline=None)
def test_disabled_gro_is_identity(stream):
    total_in, out = run_gro(stream, enabled=False)
    assert len(out) == len(stream)
    assert sum(s.payload_bytes for s in out) == total_in


@given(stream=streams)
@settings(max_examples=50, deadline=None)
def test_regions_follow_payload(stream):
    _, out = run_gro(stream)
    for skb in out:
        assert sum(nbytes for _, nbytes in skb.regions) == skb.payload_bytes
