"""Unit tests for the receive socket queue."""

from repro.kernel.skb import Skb
from repro.kernel.socket import Socket


def make_skb(seq=0, size=1000):
    return Skb(flow_id=1, seq=seq, payload_bytes=size)


def test_enqueue_tracks_unread():
    sock = Socket(1, 10_000)
    sock.enqueue(make_skb(size=400))
    assert sock.unread_bytes == 400


def test_drain_whole_skbs():
    sock = Socket(1, 10_000)
    sock.enqueue(make_skb(seq=0, size=300))
    sock.enqueue(make_skb(seq=300, size=300))
    taken, portions = sock.drain(600)
    assert taken == 600
    assert [p[2] for p in portions] == [True, True]
    assert sock.unread_bytes == 0


def test_drain_partial_head():
    sock = Socket(1, 10_000)
    sock.enqueue(make_skb(size=1000))
    taken, portions = sock.drain(400)
    assert taken == 400
    assert portions[0][2] is False  # head not fully consumed
    taken2, portions2 = sock.drain(600)
    assert taken2 == 600
    assert portions2[0][2] is True


def test_drain_conserves_bytes():
    sock = Socket(1, 10_000)
    for i in range(5):
        sock.enqueue(make_skb(seq=i * 700, size=700))
    total = 0
    while sock.unread_bytes:
        taken, portions = sock.drain(900)
        assert taken == sum(p[1] for p in portions)
        total += taken
    assert total == 3500


def test_drain_empty_returns_zero():
    sock = Socket(1, 10_000)
    assert sock.drain(100) == (0, [])


def test_free_space_and_advertised_window():
    sock = Socket(1, 10_000)
    sock.enqueue(make_skb(size=4000))
    assert sock.free_space() == 6000
    assert sock.advertised_window() == 3000  # tcp_adv_win_scale=1


def test_window_never_negative():
    sock = Socket(1, 1000)
    sock.enqueue(make_skb(size=5000))  # over-committed by ooo merging
    assert sock.free_space() == 0
    assert sock.advertised_window() == 0
