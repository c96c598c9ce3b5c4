"""Property-based tests for socket-queue invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.skb import Skb
from repro.kernel.socket import Socket


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=65536), max_size=50),
    reads=st.lists(st.integers(min_value=1, max_value=131072), max_size=80),
)
@settings(max_examples=100, deadline=None)
def test_drain_conserves_bytes(sizes, reads):
    sock = Socket(1, 10**9)
    seq = 0
    for size in sizes:
        sock.enqueue(Skb(flow_id=1, seq=seq, payload_bytes=size))
        seq += size
    enqueued = sum(sizes)
    drained = 0
    for read in reads:
        taken, portions = sock.drain(read)
        assert taken <= read
        assert taken == sum(p[1] for p in portions)
        drained += taken
    assert drained + sock.unread_bytes == enqueued


@given(sizes=st.lists(st.integers(min_value=1, max_value=9000), max_size=40))
@settings(max_examples=50, deadline=None)
def test_window_accounting_consistent(sizes):
    buffer_bytes = 200_000
    sock = Socket(1, buffer_bytes)
    seq = 0
    for size in sizes:
        sock.enqueue(Skb(flow_id=1, seq=seq, payload_bytes=size))
        seq += size
        assert sock.free_space() == max(0, buffer_bytes - sock.unread_bytes)
        assert 0 <= sock.advertised_window() <= buffer_bytes // 2


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=9000), min_size=1, max_size=30)
)
@settings(max_examples=50, deadline=None)
def test_full_drain_returns_everything_in_order(sizes):
    sock = Socket(1, 10**9)
    seq = 0
    for size in sizes:
        sock.enqueue(Skb(flow_id=1, seq=seq, payload_bytes=size))
        seq += size
    taken, portions = sock.drain(10**9)
    assert taken == sum(sizes)
    seqs = [skb.seq for skb, _, _ in portions]
    assert seqs == sorted(seqs)
    assert sock.unread_bytes == 0
