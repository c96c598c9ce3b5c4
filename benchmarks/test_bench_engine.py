"""Micro-benchmarks for the discrete-event engine hot loop.

Unlike the figure benchmarks (one deterministic round each), these measure
the engine's two hot paths: the plain schedule/fire loop with 50k events
pending at once, and timer churn where most scheduled events are cancelled
before they fire (the eager delayed-ACK / pacing re-arm pattern; the RTO is
a deadline the endpoint moves without cancelling).
"""

from repro.sim.engine import Engine

NUM_EVENTS = 50_000


def _schedule_and_run() -> int:
    engine = Engine()
    fired = 0

    def tick() -> None:
        nonlocal fired
        fired += 1

    for i in range(NUM_EVENTS):
        engine.schedule(i % 977, tick)
    engine.run()
    return fired


def _cancel_churn() -> int:
    """Re-armed timers: every tick re-schedules the timer that fired it (so
    ``old`` has already left the queue) and arms and at once cancels a
    far-future one: one cancel per tick, each an arm-then-cancel."""
    engine = Engine()
    fired = 0
    timer = None

    def tick() -> None:
        nonlocal fired, timer
        fired += 1
        if fired < NUM_EVENTS:
            old = timer
            timer = engine.schedule(100, tick)
            engine.schedule(50, noop)
            if old is not None:
                old.cancel()
            # Arm-and-cancel immediately: pop-on-cancel drops the event and,
            # as the heap's last leaf, its instant too.
            engine.schedule(1_000_000, noop).cancel()

    def noop() -> None:
        pass

    timer = engine.schedule(0, tick)
    engine.run()
    return fired


def test_engine_schedule_run(benchmark):
    fired = benchmark(_schedule_and_run)
    assert fired == NUM_EVENTS


def test_engine_cancel_churn(benchmark):
    fired = benchmark(_cancel_churn)
    assert fired == NUM_EVENTS
