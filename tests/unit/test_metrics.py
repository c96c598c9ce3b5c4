"""Unit tests for metric collection."""

import pytest

from repro.core.metrics import MetricsHub


def _latency(values, recording=True):
    hub = MetricsHub(recording)
    hist = hub.copy_latency("receiver")
    for value in values:
        hist.record(value)
    return hub, hist


def test_latency_stats_basic():
    _, stats = _latency([100, 200, 300, 400])
    assert stats.count == 4
    assert stats.avg_ns == 250
    assert stats.max_ns == 400
    # 200 lands in the sub-bucket [200, 207]
    assert 200 <= stats.percentile(0.50) <= 207


def test_latency_stats_p99():
    _, stats = _latency(range(1, 101))
    # 99 lands in the sub-bucket [96, 99]
    assert 96 <= stats.percentile(0.99) <= 99


def test_latency_stats_empty():
    _, stats = _latency([])
    assert stats.count == 0 and stats.avg_ns == 0.0
    assert stats.percentile(0.99) == 0.0


def test_copy_latency_records_only_once_started():
    hub, hist = _latency([5, 7], recording=False)
    assert hist.count == 0
    hub.start()
    assert hub.copy_latency("receiver") is hist
    hist.record(9)
    assert (hist.count, hist.total_ns, hist.max_ns) == (1, 9, 9)


def test_reset_zeroes_copy_latency_in_place():
    hub, hist = _latency([5, 7])
    hub.reset()
    assert hub.copy_latency("receiver") is hist
    assert hist.count == 0 and sum(hist.buckets) == 0


def test_delivered_accumulates_per_host_and_flow():
    hub = MetricsHub()
    hub.record_delivered("receiver", 1, 1000)
    hub.record_delivered("receiver", 1, 500)
    hub.record_delivered("sender", 2, 200)
    assert hub.side("receiver").delivered_bytes == 1500
    assert hub.flow_bytes("receiver", 1) == 1500
    assert hub.total_delivered_bytes() == 1700


def test_delivered_by_tag():
    hub = MetricsHub()
    hub.register_flow(1, "long")
    hub.register_flow(2, "short")
    hub.record_delivered("receiver", 1, 1000)
    hub.record_delivered("receiver", 2, 100)
    hub.record_delivered("sender", 2, 100)
    assert hub.delivered_by_tag() == {"long": 1000, "short": 200}


def test_delivered_by_tag_per_host_does_not_double_count():
    """Regression: RPC flows record deliveries on *both* hosts (requests on
    the server, responses on the client). Per-tag throughput must come from
    one side, or the tag total double-counts relative to per-host totals."""
    hub = MetricsHub()
    hub.register_flow(1, "short")
    hub.record_delivered("receiver", 1, 4096)  # request, recorded by server
    hub.record_delivered("sender", 1, 4096)    # response, recorded by client
    assert hub.delivered_by_tag("receiver") == {"short": 4096}
    assert hub.delivered_by_tag("sender") == {"short": 4096}
    assert sum(hub.delivered_by_tag("receiver").values()) == (
        hub.side("receiver").delivered_bytes
    )


def test_per_flow_delivered_matches_side_totals():
    hub = MetricsHub()
    hub.record_delivered("receiver", 1, 100)
    hub.record_delivered("receiver", 2, 50)
    hub.record_delivered("sender", 1, 7)
    assert hub.per_flow_delivered("receiver") == {1: 100, 2: 50}
    assert sum(hub.per_flow_delivered("receiver").values()) == 150
    assert hub.per_flow_delivered("sender") == {1: 7}


def test_cache_miss_rate():
    hub = MetricsHub()
    hub.record_receiver_copy("receiver", hit=300, miss=700)
    assert hub.side("receiver").cache_miss_rate() == pytest.approx(0.7)


def test_miss_rate_with_no_traffic_is_zero():
    assert MetricsHub().side("receiver").cache_miss_rate() == 0.0


def test_reset_clears_measurements_but_keeps_tags():
    hub = MetricsHub()
    hub.register_flow(1, "long")
    hub.record_delivered("receiver", 1, 1000)
    hub.reset()
    assert hub.total_delivered_bytes() == 0
    hub.record_delivered("receiver", 1, 10)
    assert hub.delivered_by_tag() == {"long": 10}


def test_rx_skb_histogram():
    hub = MetricsHub()
    hub.record_rx_skb("receiver", 9000)
    hub.record_rx_skb("receiver", 9000)
    hub.record_rx_skb("receiver", 64 * 1024)
    assert hub.side("receiver").rx_skb_sizes[9000] == 2
