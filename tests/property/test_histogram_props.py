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
