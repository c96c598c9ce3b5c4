"""Timer-ordering contracts of the engine, as the clock producers rely on them.

CPU job completions and TCP retransmission deadlines were once dispatched
from a separate deadline-sorted express lane; they are ordinary wheel events
now. The lane had to reproduce the wheel's order exactly, and these tests
pin the same contracts on the wheel alone: exact firing times, time order
regardless of registration order, ticket order within an instant, same-pass
firing for entries added mid-drain, the overflow heap beyond the wheel
horizon, and ``run(until=...)`` boundaries.
"""

import pytest

from repro.sim.engine import Engine


def test_express_entry_fires_at_its_time():
    engine = Engine()
    fired = []
    engine.schedule_at(500, fired.append, "x")
    engine.run()
    assert fired == ["x"]
    assert engine.now == 500
    assert engine.events_fired == 1
    assert engine.pending_events() == 0


def test_express_without_arg_calls_bare():
    engine = Engine()
    fired = []
    engine.schedule_at(100, lambda: fired.append("bare"))
    engine.run()
    assert fired == ["bare"]


def test_express_entries_sort_by_time():
    engine = Engine()
    order = []
    # Separate blocks, registered out of order...
    engine.schedule_at(3000, order.append, "c")
    engine.schedule_at(1000, order.append, "a")
    engine.schedule_at(2000, order.append, "b")
    # ...and two entries sharing one 256 ns block, also reversed.
    engine.schedule_at(1010, order.append, "a2")
    engine.schedule_at(1005, order.append, "a1")
    engine.run()
    assert order == ["a", "a1", "a2", "b", "c"]


def test_express_cannot_schedule_in_the_past():
    engine = Engine()
    engine.schedule(100, lambda: None)
    engine.run()
    assert engine.now == 100
    with pytest.raises(ValueError):
        engine.schedule_at(50, lambda: None)
    with pytest.raises(ValueError):
        engine.schedule(-1, lambda: None)


def test_same_instant_wheel_and_express_fire_in_registration_order():
    # ``schedule`` and ``schedule_at`` draw tickets from one counter, so two
    # events at the same instant interleave by registration order whichever
    # entry point each came through.
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


def test_express_registered_mid_drain_fires_in_same_pass():
    # An entry scheduled from inside a callback, for the very block being
    # drained, fires in this pass — after "second", because it draws its
    # ticket at registration time.
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


def test_express_ahead_of_wheel_block_dispatches_off_heap():
    # An event beyond the wheel horizon waits in the overflow heap; a nearer
    # wheel event fires first, then the far one is dispatched off the heap
    # at its exact time. Each counts once.
    engine = Engine()
    order = []
    far = 1 << 41
    engine.schedule_at(far, order.append, "far")
    engine.schedule_at(1_000, order.append, "near")
    engine.run()
    assert order == ["near", "far"]
    assert engine.now == far
    assert engine.events_fired == 2


def test_run_until_does_not_fire_future_express_entries():
    engine = Engine()
    fired = []
    engine.schedule_at(10, fired.append, 1)
    engine.schedule_at(1000, fired.append, 2)
    engine.run(until=100)
    assert fired == [1]
    assert engine.now == 100
    engine.run(until=2000)
    assert fired == [1, 2]
