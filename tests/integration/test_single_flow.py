"""Integration tests for the §3.1 single-flow headline results."""

from repro.core.taxonomy import Category


def test_throughput_per_core_in_paper_band(single_flow_result):
    """The paper reports ~42Gbps-per-core; we accept the 35-60 band."""
    assert 35 <= single_flow_result.throughput_per_core_gbps <= 60


def test_receiver_is_the_bottleneck(single_flow_result):
    assert single_flow_result.bottleneck_side == "receiver"
    assert (
        single_flow_result.receiver_utilization_cores
        > 1.5 * single_flow_result.sender_utilization_cores
    )


def test_receiver_core_fully_utilized(single_flow_result):
    assert single_flow_result.receiver_utilization_cores > 0.95


def test_data_copy_dominates_receiver_cycles(single_flow_result):
    category, fraction = single_flow_result.receiver_breakdown.top()
    assert category is Category.DATA_COPY
    assert fraction > 0.40


def test_single_flow_sees_high_cache_misses(single_flow_result):
    """§3.1's surprise: ~49% L3 misses even without cache contention."""
    assert 0.35 <= single_flow_result.receiver_cache_miss_rate <= 0.80


def test_sender_copy_mostly_hits(single_flow_result):
    assert single_flow_result.sender_cache_miss_rate < 0.15


def test_stack_latency_reflects_standing_queue(single_flow_result):
    """Host latency from NAPI to copy is hundreds of microseconds."""
    avg_us = single_flow_result.copy_latency.avg_ns / 1000
    assert 100 <= avg_us <= 3000
    latency = single_flow_result.copy_latency
    assert latency.percentile(0.99) >= latency.avg_ns


def test_no_losses_on_clean_direct_link(single_flow_result):
    assert single_flow_result.wire_drops == 0
    assert single_flow_result.retransmits == 0
