"""Property-based tests for the log-linear latency histogram.

One histogram class serves every trace stage and the always-on copy latency
(Fig 3f): exact below 32 ns, then 16 linear sub-buckets per octave.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import StageHistogram, bucket_bounds, bucket_index

deltas = st.integers(min_value=0, max_value=1 << 42)
streams = st.lists(deltas, max_size=60)


def _hist_from(values):
    hist = StageHistogram()
    hist.record_many(values)
    return hist


@given(value=deltas)
@settings(max_examples=500, deadline=None)
def test_value_lands_in_a_bucket_that_contains_it(value):
    low, high = bucket_bounds(bucket_index(value))
    assert low <= value <= high
    # A sub-bucket is at most 1/16 of its low edge wide.
    assert high - low <= low // 16


@given(a=deltas, b=deltas)
@settings(max_examples=500, deadline=None)
def test_bucket_index_is_monotone(a, b):
    low, high = sorted((a, b))
    assert bucket_index(low) <= bucket_index(high)


@given(values=streams)
@settings(max_examples=200, deadline=None)
def test_record_many_matches_one_record_per_value(values):
    one_by_one = StageHistogram()
    for value in values:
        one_by_one.record(value)
    assert _hist_from(values) == one_by_one


@given(values=streams.filter(bool), fraction=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_percentile_never_exceeds_max(values, fraction):
    hist = _hist_from(values)
    assert hist.percentile(fraction) <= hist.max_ns == max(values)


@given(a=streams, b=streams, c=streams)
@settings(max_examples=100, deadline=None)
def test_merge_is_associative(a, b, c):
    left = _hist_from(a)
    left.merge(_hist_from(b))
    left.merge(_hist_from(c))
    bc = _hist_from(b)
    bc.merge(_hist_from(c))
    right = _hist_from(a)
    right.merge(bc)
    assert left == right == _hist_from(a + b + c)


#: Deltas where bucketing can go wrong: exact values below 32, the edges of
#: every octave, and anything up to 2^63.
edge_deltas = st.one_of(
    st.integers(min_value=0, max_value=31),
    st.builds(
        lambda octave, offset: max(0, (1 << octave) + offset),
        st.integers(min_value=5, max_value=63),
        st.integers(min_value=-1, max_value=1),
    ),
    st.integers(min_value=0, max_value=1 << 63),
)
edge_streams = st.lists(edge_deltas, max_size=80)


def _reference(values):
    """``to_dict`` of ``values`` bucketed one by one with ``bucket_index``."""
    buckets = {}
    for value in values:
        index = bucket_index(value)
        buckets[index] = buckets.get(index, 0) + 1
    return {
        "count": len(values),
        "total_ns": sum(values),
        "max_ns": max(values, default=0),
        "buckets": {str(index): buckets[index] for index in sorted(buckets)},
    }


def _assert_matches(hist, values):
    reference = _reference(values)
    assert (hist.count, hist.total_ns, hist.max_ns) == (
        reference["count"], reference["total_ns"], reference["max_ns"]
    )
    assert hist.to_dict() == reference
    expected = StageHistogram.from_dict(reference)
    assert hist == expected
    for fraction in (0.0, 0.01, 0.5, 0.9, 0.99, 1.0):
        assert hist.percentile(fraction) == expected.percentile(fraction)


@given(values=edge_streams, split=st.integers(min_value=0, max_value=80))
@settings(max_examples=300, deadline=None)
def test_recording_equals_per_delta_bucketing(values, split):
    one_by_one = StageHistogram()
    for value in values:
        one_by_one.record(value)
    _assert_matches(one_by_one, values)

    batched = StageHistogram()
    batched.record_many(values[:split])
    batched.record_many(values[split:])
    _assert_matches(batched, values)

    # A copy taken mid-stream is detached and holds what was recorded so far.
    partial = StageHistogram()
    partial.record_many(values[:split])
    snapshot = partial.copy()
    partial.record_many(values[split:])
    _assert_matches(snapshot, values[:split])
    _assert_matches(partial, values)

    # Merging the two halves equals recording the whole stream.
    head, tail = StageHistogram(), StageHistogram()
    head.record_many(values[:split])
    for value in values[split:]:
        tail.record(value)
    head.merge(tail)
    _assert_matches(head, values)

    _assert_matches(StageHistogram.from_dict(batched.to_dict()), values)
