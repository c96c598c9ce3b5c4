"""Property-based tests for the event engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine


@given(delays=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1,
                       max_size=50))
@settings(max_examples=50, deadline=None)
def test_events_always_fire_in_nondecreasing_time_order(delays):
    engine = Engine()
    fired_times = []
    for delay in delays:
        engine.schedule(delay, lambda: fired_times.append(engine.now))
    engine.run()
    assert fired_times == sorted(fired_times)
    assert len(fired_times) == len(delays)


@given(
    delays=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=30),
    cutoff=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=50, deadline=None)
def test_run_until_fires_exactly_events_at_or_before_cutoff(delays, cutoff):
    engine = Engine()
    fired = []
    for delay in delays:
        engine.schedule(delay, fired.append, delay)
    engine.run(until=cutoff)
    assert sorted(fired) == sorted(d for d in delays if d <= cutoff)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_cancelled_subset_never_fires(data):
    delays = data.draw(
        st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=20)
    )
    engine = Engine()
    fired = []
    events = [engine.schedule(d, fired.append, i) for i, d in enumerate(delays)]
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(events) - 1))
    )
    for index in to_cancel:
        events[index].cancel()
    engine.run()
    assert set(fired) == set(range(len(events))) - to_cancel


def _assert_exact_bookkeeping(engine):
    """pending_events() must agree with an exact recount, and never go
    negative — the event-queue-hygiene invariant the auditor enforces."""
    counts = engine.audit_counts()
    assert counts["pending"] >= 0
    assert counts["cancelled_tracked"] == counts["cancelled_recount"]
    assert counts["pending"] == counts["queued"] - counts["cancelled_recount"]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_interleaved_schedule_cancel_keeps_pending_exact(data):
    """Random interleavings of schedule / cancel / double-cancel /
    arm-then-cancel keep ``pending_events()`` exact at every step and
    through the drain."""
    engine = Engine()
    live = []
    steps = data.draw(
        st.lists(st.sampled_from(["schedule", "cancel", "recancel", "arm_cancel"]),
                 min_size=1, max_size=60)
    )
    expected_pending = 0
    for step in steps:
        if step == "schedule":
            delay = data.draw(st.integers(min_value=0, max_value=50))
            live.append(engine.schedule(delay, lambda: None))
            expected_pending += 1
        elif step == "cancel" and live:
            index = data.draw(st.integers(min_value=0, max_value=len(live) - 1))
            live.pop(index).cancel()
            expected_pending -= 1
        elif step == "recancel" and live:
            # cancelling twice must not decrement the counter twice
            index = data.draw(st.integers(min_value=0, max_value=len(live) - 1))
            event = live.pop(index)
            event.cancel()
            event.cancel()
            expected_pending -= 1
        elif step == "arm_cancel":
            # the TCP timer pattern: the cancel pops the list's last entry
            delay = data.draw(st.integers(min_value=0, max_value=50))
            engine.schedule(delay, lambda: None).cancel()
        assert engine.pending_events() == expected_pending
        _assert_exact_bookkeeping(engine)
    engine.run()
    assert engine.pending_events() == 0
    _assert_exact_bookkeeping(engine)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_cancel_from_within_callback_keeps_pending_exact(data):
    """Callbacks that cancel other queued events (TCP re-arms timers from
    inside handlers constantly) must leave the lazy counter consistent."""
    num_events = data.draw(st.integers(min_value=2, max_value=15))
    engine = Engine()
    events = []
    fired = []

    def make_callback(index):
        def callback():
            fired.append(index)
            victim = index + 1 + (index % 3)
            if victim < len(events):
                events[victim].cancel()
            _assert_exact_bookkeeping(engine)
        return callback

    for index in range(num_events):
        delay = data.draw(st.integers(min_value=0, max_value=30))
        events.append(engine.schedule(delay, make_callback(index)))
    engine.run()
    assert engine.pending_events() == 0
    _assert_exact_bookkeeping(engine)


def test_cancel_after_fire_is_a_noop_for_bookkeeping():
    """Cancelling an event that already fired (or was already popped) must
    not decrement the cancelled counter — the event left the queue live."""
    engine = Engine()
    event = engine.schedule(5, lambda: None)
    bystander = engine.schedule(10, lambda: None)
    engine.run(until=7)  # `event` fires, `bystander` still queued
    event.cancel()
    counts = engine.audit_counts()
    assert counts["cancelled_tracked"] == 0
    assert engine.pending_events() == 1
    bystander.cancel()
    assert engine.pending_events() == 0
    engine.run()
    _assert_exact_bookkeeping(engine)


def test_compaction_threshold_preserves_pending_count():
    """Flag-cancelling hundreds of events must not change pending_events()
    or lose live events. (The name dates from the in-place compaction this
    replaced.)"""
    engine = Engine()
    doomed = [engine.schedule(1, lambda: None) for _ in range(522)]
    fired = []
    survivors = 7
    for index in range(survivors):
        engine.schedule(2, fired.append, index)
    for event in doomed:
        event.cancel()  # flagged; the last one is popped
    assert engine.pending_events() == survivors
    _assert_exact_bookkeeping(engine)
    engine.run()
    assert sorted(fired) == list(range(survivors))
