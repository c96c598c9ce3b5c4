"""Unit tests for metric collection."""

import pytest

from repro.core.metrics import LatencyStats, MetricsHub


def test_latency_stats_basic():
    stats = LatencyStats.from_samples([100, 200, 300, 400])
    assert stats.count == 4
    assert stats.avg_ns == 250
    assert stats.max_ns == 400
    assert stats.p50_ns == 200


def test_latency_stats_p99():
    stats = LatencyStats.from_samples(list(range(1, 101)))
    assert stats.p99_ns == 99


def test_latency_stats_empty():
    stats = LatencyStats.from_samples([])
    assert stats.count == 0 and stats.avg_ns == 0.0


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


def test_latency_under_cap_is_stored_verbatim():
    hub = MetricsHub()
    for value in (5, 3, 9):
        hub.record_copy_latency("receiver", value)
    stats = hub.latency_stats("receiver")
    assert stats.count == 3
    assert stats.dropped_samples == 0
    assert stats.max_ns == 9


def test_latency_past_cap_uses_reservoir_not_truncation(monkeypatch):
    """Regression: samples past the cap used to be silently discarded,
    pinning p99/max to early steady state. The reservoir keeps late samples
    reachable and reports how many recordings exceeded the cap."""
    import repro.core.metrics as metrics_mod

    monkeypatch.setattr(metrics_mod, "MAX_LATENCY_SAMPLES", 10)
    hub = MetricsHub()
    for value in range(10):
        hub.record_copy_latency("receiver", value)
    # 90 late samples, all much larger than anything in the initial window.
    for value in range(1000, 1090):
        hub.record_copy_latency("receiver", value)
    stats = hub.latency_stats("receiver")
    assert stats.count == 100  # every observation counted...
    assert stats.retained == 10  # ...with storage staying at the cap
    assert stats.dropped_samples == 90
    assert stats.max_ns >= 1000  # late samples displaced early ones


def test_latency_reservoir_is_deterministic(monkeypatch):
    import repro.core.metrics as metrics_mod

    monkeypatch.setattr(metrics_mod, "MAX_LATENCY_SAMPLES", 8)

    def fill(hub):
        for value in range(200):
            hub.record_copy_latency("receiver", value)
        return hub.side("receiver").latency_samples

    assert fill(MetricsHub()) == fill(MetricsHub())

    # reset() reseeds, so post-warmup sampling repeats too
    hub = MetricsHub()
    first = list(fill(hub))
    hub.reset()
    assert fill(hub) == first


def test_reservoir_invariant_to_cross_host_interleaving(monkeypatch):
    """Regression: a hub-wide reservoir RNG made each host's retained sample
    set depend on how the *other* host's recordings interleaved with its own.
    With per-host RNG streams, any interleaving of the same two per-host
    sequences retains identical samples."""
    import repro.core.metrics as metrics_mod

    monkeypatch.setattr(metrics_mod, "MAX_LATENCY_SAMPLES", 8)
    receiver_seq = list(range(100))
    sender_seq = list(range(1000, 1100))

    def retained(interleave):
        hub = MetricsHub()
        for host, value in interleave:
            hub.record_copy_latency(host, value)
        return (
            list(hub.side("receiver").latency_samples),
            list(hub.side("sender").latency_samples),
        )

    sequential = retained(
        [("receiver", v) for v in receiver_seq]
        + [("sender", v) for v in sender_seq]
    )
    alternating = retained(
        [pair for r, s in zip(receiver_seq, sender_seq)
         for pair in (("receiver", r), ("sender", s))]
    )
    assert sequential == alternating


def test_latency_count_is_retained_plus_dropped(monkeypatch):
    import repro.core.metrics as metrics_mod

    monkeypatch.setattr(metrics_mod, "MAX_LATENCY_SAMPLES", 16)
    hub = MetricsHub()
    total = 0
    for value in range(50):
        hub.record_copy_latency("receiver", value)
        total += value
    stats = hub.latency_stats("receiver")
    assert stats.count == stats.retained + stats.dropped_samples == 50
    assert hub.side("receiver").latency_total_ns == total
    # The average is the exact running total over every observation, not
    # the mean of the retained sample.
    assert stats.avg_ns == total / 50


def test_empty_samples_with_drops_is_rejected():
    with pytest.raises(ValueError):
        LatencyStats.from_samples([], dropped_samples=5)
