"""Unit tests for the discrete-event engine."""

import gc
import weakref

import pytest

from repro.sim.engine import Engine


def test_time_starts_at_zero():
    assert Engine().now == 0


def test_schedule_and_run_in_order():
    engine = Engine()
    order = []
    engine.schedule(30, order.append, "c")
    engine.schedule(10, order.append, "a")
    engine.schedule(20, order.append, "b")
    engine.run()
    assert order == ["a", "b", "c"]


def test_same_timestamp_fifo_order():
    engine = Engine()
    order = []
    for name in "abcde":
        engine.schedule(5, order.append, name)
    engine.run()
    assert order == list("abcde")


def test_clock_advances_to_event_time():
    engine = Engine()
    engine.schedule(123, lambda: None)
    engine.run()
    assert engine.now == 123


def test_run_until_stops_before_later_events():
    engine = Engine()
    fired = []
    engine.schedule(10, fired.append, 1)
    engine.schedule(100, fired.append, 2)
    engine.run(until=50)
    assert fired == [1]
    assert engine.now == 50  # clock lands exactly on the boundary


def test_run_until_can_resume():
    engine = Engine()
    fired = []
    engine.schedule(10, fired.append, 1)
    engine.schedule(100, fired.append, 2)
    engine.run(until=50)
    engine.run(until=200)
    assert fired == [1, 2]


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    event = engine.schedule(10, fired.append, "x")
    event.cancel()
    engine.run()
    assert fired == []


def test_cancel_is_idempotent():
    engine = Engine()
    event = engine.schedule(10, lambda: None)
    event.cancel()
    event.cancel()
    engine.run()


def test_schedule_in_past_raises():
    engine = Engine()
    engine.schedule(10, lambda: None)
    engine.run()
    with pytest.raises(ValueError):
        engine.schedule_at(5, lambda: None)


def test_negative_delay_raises():
    with pytest.raises(ValueError):
        Engine().schedule(-1, lambda: None)


def test_events_scheduled_during_run_fire():
    engine = Engine()
    order = []

    def first():
        order.append("first")
        engine.schedule(5, order.append, "nested")

    engine.schedule(10, first)
    engine.run()
    assert order == ["first", "nested"]
    assert engine.now == 15


def test_stop_halts_processing():
    engine = Engine()
    fired = []

    def stopper():
        fired.append("stop")
        engine.stop()

    engine.schedule(1, stopper)
    engine.schedule(2, fired.append, "after")
    engine.run()
    assert fired == ["stop"]


def test_pending_events_counts_noncancelled():
    engine = Engine()
    engine.schedule(1, lambda: None)
    event = engine.schedule(2, lambda: None)
    event.cancel()
    assert engine.pending_events() == 1


def test_zero_delay_event_fires_now():
    engine = Engine()
    fired = []
    engine.schedule(0, fired.append, True)
    engine.run()
    assert fired == [True] and engine.now == 0


def test_stop_mid_instant_resumes_same_instant_events_in_ticket_order():
    engine = Engine()
    order = []

    def first():
        order.append("first")
        engine.schedule(0, order.append, "nested-1")
        engine.stop()
        engine.schedule(0, order.append, "nested-2")

    engine.schedule(10, first)
    engine.schedule(10, order.append, "second")
    engine.run()
    assert order == ["first"]
    assert engine.now == 10 and engine.pending_events() == 3
    engine.run()
    assert order == ["first", "second", "nested-1", "nested-2"]
    assert engine.now == 10 and engine.pending_events() == 0


def test_cancel_emptying_an_instant_leaves_counts_exact_and_fires_nothing():
    engine = Engine()
    fired = []
    engine.schedule(5, fired.append, "a")
    doomed = engine.schedule(10, fired.append, "doomed")
    engine.schedule(20, fired.append, "b")
    engine.schedule(30, fired.append, "far").cancel()  # the heap's last leaf
    assert 30 not in engine._buckets and 30 not in engine._times
    doomed.cancel()  # last entry of its instant, but not the heap's last leaf
    assert 10 not in engine._buckets
    assert 10 in engine._times  # the instant's heap entry is now stale
    counts = engine.audit_counts()
    assert engine.pending_events() == 2
    assert counts["queued"] == 2
    assert counts["cancelled_tracked"] == counts["cancelled_recount"] == 0
    engine.run(until=12)
    assert fired == ["a"] and engine.now == 12
    assert engine.pending_events() == 1
    engine.run()
    assert fired == ["a", "b"] and engine.now == 20
    assert engine.events_fired == 2 and engine.events_cancelled == 2


def test_stale_instants_are_swept_once_they_outnumber_live_ones():
    """Cancels that empty instants leave stale heap entries behind; nothing
    sweeps them, and each is skipped when it is popped. (The name dates
    from the heap rebuild this replaced.)"""
    engine = Engine()
    for delay in (1, 10**6, 10**6 + 1, 10**6 + 2):
        engine.schedule(delay, lambda: None)
    for delay in range(999, 1, -1):
        # Each new instant sifts up past every later one, so it is not the
        # heap's last leaf and its cancel leaves a stale entry behind.
        engine.schedule(delay, lambda: None).cancel()
    assert engine.pending_events() == 4
    assert engine.audit_counts()["queued"] == 4
    engine.run()
    assert engine.events_fired == 4 and engine.now == 10**6 + 2
    assert not engine._times


def test_compaction_inside_a_callback_keeps_the_drain_position():
    """Flag-cancels from inside a callback, on the instant being drained
    and on a later one, keep the drain position and the counts exact.
    (The name dates from the in-place compaction this replaced.)"""
    engine = Engine()
    order = []
    doomed = []

    def compacting():
        order.append("compacting")
        for event in doomed:
            event.cancel()  # not the last entry of its instant: flagged
        counts = engine.audit_counts()
        assert counts["cancelled_tracked"] == counts["cancelled_recount"]
        engine.schedule(0, order.append, "appended")

    engine.schedule(10, order.append, "before")
    engine.schedule(10, compacting)
    doomed.extend(engine.schedule(10, order.append, "doomed") for _ in range(512))
    engine.schedule(10, order.append, "after")
    doomed.extend(engine.schedule(30, order.append, "doomed") for _ in range(512))
    engine.schedule(30, order.append, "later")
    engine.run()
    assert order == ["before", "compacting", "after", "appended", "later"]
    assert engine.pending_events() == 0
    counts = engine.audit_counts()
    assert counts["queued"] == counts["cancelled_recount"] == 0


def test_flag_cancel_drops_the_callback_at_once():
    """A flagged event waits in its instant's list until the drain, but its
    callback and arguments are released at cancel time, so a dead timer
    does not keep its owner alive."""

    class Owner:
        def fire(self):
            pass

    engine = Engine()
    owner = Owner()
    owner_ref = weakref.ref(owner)
    doomed = engine.schedule(10, owner.fire)
    engine.schedule(10, lambda: None)  # keeps `doomed` off the list's end
    doomed.cancel()
    assert engine.audit_counts()["cancelled_recount"] == 1
    del owner
    gc.collect()
    assert owner_ref() is None
    assert doomed.fn is None and doomed.args == ()
    engine.run()
    assert engine.events_fired == 1
