"""Unit tests for the result dataclasses."""

import pytest

from repro.core.results import BreakdownTable, ExperimentResult
from repro.core.taxonomy import Category
from repro.trace import StageHistogram


def make_result(total=40.0, snd=0.5, rcv=1.0, skb_sizes=None):
    breakdown = BreakdownTable({Category.DATA_COPY: 0.5, Category.TCPIP: 0.5})
    return ExperimentResult(
        config_summary="test",
        duration_ns=10_000_000,
        total_throughput_gbps=total,
        sender_utilization_cores=snd,
        receiver_utilization_cores=rcv,
        sender_breakdown=breakdown,
        receiver_breakdown=breakdown,
        receiver_cache_miss_rate=0.5,
        sender_cache_miss_rate=0.1,
        copy_latency=StageHistogram(),
        rx_skb_sizes=skb_sizes or {},
    )


def test_bottleneck_is_higher_utilization_side():
    assert make_result(snd=0.5, rcv=1.0).bottleneck_side == "receiver"
    assert make_result(snd=1.2, rcv=1.0).bottleneck_side == "sender"


def test_throughput_per_core_uses_bottleneck():
    result = make_result(total=40.0, snd=0.5, rcv=2.0)
    assert result.throughput_per_core_gbps == pytest.approx(20.0)


def test_per_side_throughput_metrics():
    result = make_result(total=90.0, snd=1.0, rcv=3.0)
    assert result.throughput_per_sender_core_gbps == pytest.approx(90.0)
    assert result.throughput_per_receiver_core_gbps == pytest.approx(30.0)


def test_zero_utilization_gives_zero_per_core():
    assert make_result(snd=0.0, rcv=0.0).throughput_per_core_gbps == 0.0


def test_breakdown_top():
    breakdown = BreakdownTable({Category.DATA_COPY: 0.6, Category.TCPIP: 0.4})
    category, fraction = breakdown.top()
    assert category is Category.DATA_COPY and fraction == 0.6


def test_breakdown_as_rows_covers_all_categories():
    breakdown = BreakdownTable({Category.DATA_COPY: 1.0})
    rows = breakdown.as_rows()
    assert len(rows) == len(Category)


def test_skb_size_cdf_monotone():
    result = make_result(skb_sizes={9000: 10, 64 * 1024: 10})
    cdf = result.skb_size_cdf()
    assert cdf[0] == (9000, 0.5)
    assert cdf[-1] == (64 * 1024, 1.0)


def test_mean_skb_bytes():
    result = make_result(skb_sizes={1000: 1, 3000: 1})
    assert result.mean_rx_skb_bytes() == 2000


def test_summary_mentions_bottleneck():
    assert "receiver" in make_result().summary()
