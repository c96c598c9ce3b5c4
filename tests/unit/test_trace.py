"""Unit tests for the per-stage latency tracing primitives."""

import pytest

from repro.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.core.report import Table
from repro.trace import (
    NUM_BUCKETS,
    STAGE_KEYS,
    SideTrace,
    StageHistogram,
    TraceHub,
    TraceReport,
    bucket_bounds,
    bucket_index,
)
from repro.units import msec


# --- log-linear bucketing --------------------------------------------------------


def test_bucket_edges():
    """Buckets 0..31 hold one value each; from 32 on, each octave [2^k,
    2^(k+1)) splits into 16 sub-buckets of 2^(k-4) ns."""
    for value in range(32):
        hist = StageHistogram()
        hist.record(value)
        assert hist.buckets[value] == 1
    bucket = 32
    for octave in range(5, 12):
        width = 1 << (octave - 4)
        for sub in range(16):
            low = (1 << octave) + sub * width
            assert bucket_bounds(bucket) == (low, low + width - 1)
            edge_hist = StageHistogram()
            edge_hist.record(low)
            edge_hist.record(low + width - 1)
            assert edge_hist.buckets[bucket] == 2, f"bucket {bucket}"
            assert sum(edge_hist.buckets) == 2
            bucket += 1


def test_exact_moments_survive_bucketing():
    hist = StageHistogram()
    values = [0, 1, 7, 8, 1000, 123456, 999]
    for value in values:
        hist.record(value)
    assert hist.count == len(values)
    assert hist.total_ns == sum(values)
    assert hist.max_ns == max(values)
    assert hist.avg_ns == pytest.approx(sum(values) / len(values))


def test_huge_delta_fits():
    hist = StageHistogram()
    hist.record((1 << 64) - 1)  # largest representable delta
    assert hist.buckets[NUM_BUCKETS - 1] == 1
    assert bucket_bounds(NUM_BUCKETS - 1)[1] == (1 << 64) - 1


# --- bucket storage --------------------------------------------------------------


def test_empty_histogram_and_its_copy_allocate_no_buckets():
    hist = StageHistogram()
    for empty in (hist, hist.copy(), StageHistogram.from_dict(hist.to_dict())):
        assert empty._buckets is None
        assert empty.to_dict()["buckets"] == {}
    hist.merge(StageHistogram())
    assert hist._buckets is None


def test_clear_drops_bucket_storage():
    hist = _hist_from([5, 1000, 1 << 40])
    assert hist.to_dict()["buckets"]
    hist.clear()
    assert hist._buckets is None
    assert hist == StageHistogram()


def test_closed_histogram_records_nothing():
    hist = StageHistogram(recording=False)
    hist.record(5)
    hist.record_many([6, 7])
    assert hist == StageHistogram() and hist._buckets is None


def test_only_histograms_with_samples_hold_a_bucket_vector():
    config = ExperimentConfig(trace=True, duration_ns=msec(1), warmup_ns=msec(1))
    result = Experiment(config).run()
    hists = [result.copy_latency] + [
        hist for stages in result.trace.hosts.values() for hist in stages.values()
    ]
    assert any(hist.count for hist in hists)
    # The sender's receive stages and the receiver's transmit stages stay empty.
    assert any(not hist.count for hist in hists)
    for hist in hists:
        assert (hist._buckets is None) == (hist.count == 0)


# --- percentiles -----------------------------------------------------------------


def test_percentile_all_zero_is_exact():
    hist = StageHistogram()
    for _ in range(10):
        hist.record(0)
    assert hist.percentile(0.5) == 0.0
    assert hist.percentile(0.99) == 0.0


def test_percentile_within_bucket_bounds():
    hist = StageHistogram()
    for value in [100, 200, 300, 400, 1000]:
        hist.record(value)
    p50 = hist.percentile(0.5)
    # rank-3 value (300) lands in the sub-bucket [288, 303]
    assert bucket_bounds(bucket_index(300)) == (288, 303)
    assert 288 <= p50 <= 303


def test_percentile_never_exceeds_max():
    hist = StageHistogram()
    hist.record(257)  # bucket [256, 271] but max is 257
    assert hist.percentile(0.99) <= 257
    assert hist.percentile(0.5) <= 257


def test_percentile_empty_is_zero():
    assert StageHistogram().percentile(0.99) == 0.0


# --- merge -----------------------------------------------------------------------


def _hist_from(values):
    hist = StageHistogram()
    for value in values:
        hist.record(value)
    return hist


def test_merge_matches_combined_stream():
    a = _hist_from([1, 5, 100])
    b = _hist_from([0, 7, 2000])
    a.merge(b)
    assert a == _hist_from([1, 5, 100, 0, 7, 2000])


def test_record_many_matches_one_record_per_delta():
    deltas = [0, 1, 5, 100, 7, 1 << 40, 2]
    hist = _hist_from([3, 9])
    hist.record_many(deltas)
    assert hist == _hist_from([3, 9] + deltas)
    hist.record_many([])
    assert hist == _hist_from([3, 9] + deltas)


def test_merge_associative_and_commutative():
    streams = ([3, 9], [0, 1 << 20], [77, 77, 78])
    # (a+b)+c
    left = _hist_from(streams[0])
    left.merge(_hist_from(streams[1]))
    left.merge(_hist_from(streams[2]))
    # a+(b+c)
    bc = _hist_from(streams[1])
    bc.merge(_hist_from(streams[2]))
    right = _hist_from(streams[0])
    right.merge(bc)
    # c+b+a
    rev = _hist_from(streams[2])
    rev.merge(_hist_from(streams[1]))
    rev.merge(_hist_from(streams[0]))
    assert left == right == rev


def test_report_merge_across_hosts():
    hub_a = TraceHub()
    hub_a.side("receiver").stage("e2e").record(100)
    hub_b = TraceHub()
    hub_b.side("receiver").stage("e2e").record(200)
    hub_b.side("sender").stage("tx_queue").record(5)
    merged = TraceReport.merge([hub_a.report(), hub_b.report()])
    assert merged.hosts["receiver"]["e2e"].count == 2
    assert merged.hosts["receiver"]["e2e"].total_ns == 300
    assert merged.hosts["sender"]["tx_queue"].count == 1


# --- serialization ---------------------------------------------------------------


def test_histogram_round_trip():
    hist = _hist_from([0, 1, 2, 1000, 1 << 40])
    assert StageHistogram.from_dict(hist.to_dict()) == hist


def test_copy_is_equal_and_detached():
    hist = _hist_from([0, 31, 32, 1000, 1 << 40])
    copy = hist.copy()
    assert copy == hist
    hist.record(5)
    assert copy.count == 5 and copy != hist


def test_report_round_trip():
    hub = TraceHub()
    hub.side("receiver").stage("rx_sockq").record(400)
    hub.side("sender").stage("tx_xmit").record(12)
    report = hub.report()
    assert TraceReport.from_dict(report.to_dict()) == report


def test_sparse_bucket_encoding():
    payload = _hist_from([1 << 30]).to_dict()
    assert list(payload["buckets"]) == [str(bucket_index(1 << 30))]  # only the populated bucket


# --- reset-in-place --------------------------------------------------------------


def test_clear_preserves_recorder_references():
    """The warmup reset must not orphan recorder references cached by the
    NIC/link/endpoints: clear() zeroes in place."""
    hub = TraceHub()
    stage = hub.side("receiver").stage("e2e")
    record = stage.record
    record(123)
    hub.reset()
    assert stage.count == 0
    record(7)  # the pre-reset reference still feeds the live histogram
    assert hub.report().hosts["receiver"]["e2e"].total_ns == 7


def test_side_trace_e2e_is_the_given_histogram():
    latency = StageHistogram(recording=False)
    hub = TraceHub(recording=False)
    side = hub.side("receiver", latency)
    assert side.stage("e2e") is latency
    hub.start()
    side.stage("e2e").record(40)
    assert latency.count == 1
    assert TraceHub().side("receiver").stage("e2e") is not latency


# --- identity check --------------------------------------------------------------


def _receive_side(softirq, sockq, e2e):
    side = SideTrace("receiver")
    for value in softirq:
        side.stage("rx_softirq").record(value)
    for value in sockq:
        side.stage("rx_sockq").record(value)
    for value in e2e:
        side.stage("e2e").record(value)
    hub = TraceHub()
    hub.sides["receiver"] = side
    return hub.report()


def test_identity_holds_when_stages_telescope():
    report = _receive_side([10, 20], [5, 5], [15, 25])
    checks, violations = report.check_identity()
    assert checks == 2 and violations == []


def test_identity_catches_total_mismatch():
    report = _receive_side([10, 20], [5, 5], [15, 26])
    _, violations = report.check_identity()
    assert any("total" in violation for violation in violations)


def test_identity_catches_count_mismatch():
    report = _receive_side([10], [5, 5], [15, 10])
    _, violations = report.check_identity()
    assert any("counts diverge" in violation for violation in violations)


# --- rendering -------------------------------------------------------------------


def test_to_table_renders_stages_in_datapath_order():
    hub = TraceHub()
    side = hub.side("receiver")
    for key in ("e2e", "rx_sockq", "rx_softirq"):
        side.stage(key).record(1000)
    table = hub.report().to_table("test")
    assert isinstance(table, Table)
    stages = [row[1].split(":")[0] for row in table.rows]
    expected_order = [k for k in STAGE_KEYS if k in {"rx_softirq", "rx_sockq", "e2e"}]
    assert stages == expected_order
    assert table.rows[0][4] == pytest.approx(1.0)  # 1000ns -> 1.00us avg
