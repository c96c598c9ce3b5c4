"""Per-instant ordering contracts of the engine, as the clock producers
(CPU job completions, TCP retransmission deadlines) rely on them: exact
firing times, time order regardless of registration order, scheduling order
within an instant, same-pass firing for events added mid-drain, far-future
(2**41 ns) events, and ``run(until=...)`` boundaries.
"""

import pytest

from repro.sim.engine import Engine


def test_event_fires_at_its_time():
    engine = Engine()
    fired = []
    engine.schedule_at(500, fired.append, "x")
    engine.run()
    assert fired == ["x"]
    assert engine.now == 500
    assert engine.events_fired == 1
    assert engine.pending_events() == 0


def test_event_without_args_calls_bare():
    engine = Engine()
    fired = []
    engine.schedule_at(100, lambda: fired.append("bare"))
    engine.run()
    assert fired == ["bare"]


def test_events_fire_in_time_order():
    engine = Engine()
    order = []
    # Separate instants, registered out of order...
    engine.schedule_at(3000, order.append, "c")
    engine.schedule_at(1000, order.append, "a")
    engine.schedule_at(2000, order.append, "b")
    # ...and two close instants, also reversed.
    engine.schedule_at(1010, order.append, "a2")
    engine.schedule_at(1005, order.append, "a1")
    engine.run()
    assert order == ["a", "a1", "a2", "b", "c"]


def test_cannot_schedule_in_the_past():
    engine = Engine()
    engine.schedule(100, lambda: None)
    engine.run()
    assert engine.now == 100
    with pytest.raises(ValueError):
        engine.schedule_at(50, lambda: None)
    with pytest.raises(ValueError):
        engine.schedule(-1, lambda: None)


def test_same_instant_events_fire_in_registration_order():
    # ``schedule`` and ``schedule_at`` append to the same per-instant list,
    # so two events at the same instant interleave by registration order
    # whichever entry point each came through.
    engine = Engine()
    order = []
    engine.schedule(1000, order.append, "relative")
    engine.schedule_at(1000, order.append, "absolute")
    engine.run()
    assert order == ["relative", "absolute"]

    engine = Engine()
    order = []
    engine.schedule_at(1000, order.append, "absolute")
    engine.schedule(1000, order.append, "relative")
    engine.run()
    assert order == ["absolute", "relative"]


def test_event_registered_mid_drain_fires_in_same_pass():
    # An event scheduled from inside a callback, for the very instant being
    # drained, fires in this pass — after "second", because it is appended
    # to the instant's list at registration time.
    engine = Engine()
    order = []

    def first():
        order.append("first")
        engine.schedule_at(engine.now, order.append, "chained")

    engine.schedule(1000, first)
    engine.schedule(1000, order.append, "second")
    engine.run()
    assert order == ["first", "second", "chained"]
    assert engine.now == 1000


def test_far_future_event_waits_for_nearer_one():
    # A far-future event waits while a nearer one fires first, then fires at
    # its exact time. Each counts once.
    engine = Engine()
    order = []
    far = 1 << 41
    engine.schedule_at(far, order.append, "far")
    engine.schedule_at(1_000, order.append, "near")
    engine.run()
    assert order == ["near", "far"]
    assert engine.now == far
    assert engine.events_fired == 2


def test_run_until_does_not_fire_future_events():
    engine = Engine()
    fired = []
    engine.schedule_at(10, fired.append, 1)
    engine.schedule_at(1000, fired.append, 2)
    engine.run(until=100)
    assert fired == [1]
    assert engine.now == 100
    engine.run(until=2000)
    assert fired == [1, 2]
