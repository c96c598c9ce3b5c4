"""Instant-heap engine vs a reference heap engine, on random programs.

The engine in ``repro.sim.engine`` (a heap of distinct instants, each with a
FIFO list of events) promises exactly the semantics of a plain
(time, schedule-order) binary heap: events fire in nondecreasing time, and
events sharing a timestamp fire in the order they were scheduled —
including events appended to an instant while it drains, and regardless of
pop-on-cancel and the stale heap entries it leaves. This test interprets
randomized programs of schedule / post / cancel / re-arm operations
(including scheduling, posting and cancelling *during* event callbacks, and
delays up to 2**42 ns) against both engines and requires identical fire
logs. Posted entries (``Engine.post``: no handle, never cancelled) share the
instants and the order of cancellable events, so the programs mix both, and
the engine's ``audit_counts()`` and ``pending_events()`` must match the
test's own count of live entries after every step and inside every
callback.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine


class _RefEvent:
    __slots__ = ("time", "seq", "fn", "cancelled")

    def __init__(self, time, seq, fn):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False

    def cancel(self):
        self.cancelled = True

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class _RefEngine:
    """Minimal binary-heap engine: the semantics the engine must reproduce."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0

    def schedule_at(self, time, fn):
        self._seq += 1
        event = _RefEvent(time, self._seq, fn)
        heapq.heappush(self._heap, event)
        return event

    def schedule(self, delay, fn):
        return self.schedule_at(self.now + delay, fn)

    def post(self, delay, fn):
        self.schedule(delay, fn)

    def run(self):
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            if event.cancelled:
                continue
            self.now = event.time
            event.fn()


#: Delays from zero to 2^42 ns, far beyond any timer the simulated stack arms.
_delays = st.integers(min_value=0, max_value=2**42)
#: What a fired event does: schedule or post a child (possibly at its own
#: timestamp) or cancel the oldest still-pending cancellable event.
_fire_actions = st.lists(
    st.one_of(
        st.tuples(st.just("child"), st.integers(min_value=0, max_value=2**20)),
        st.tuples(st.just("post_child"), st.integers(min_value=0, max_value=2**20)),
        st.just(("cancel_oldest",)),
    ),
    max_size=3,
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("sched"), _delays, _fire_actions),
        st.tuples(st.just("post"), _delays, _fire_actions),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("resched"), st.integers(min_value=0, max_value=10**6), _delays),
    ),
    max_size=50,
)


def _interpret(engine, program, audit=False):
    """Run ``program`` against ``engine``; return the (time, id) fire log.

    All decisions (which event a cancel/resched targets, what a callback
    does) depend only on mirrored driver state, never on engine internals,
    so both engines see byte-identical instruction streams. With ``audit``,
    the engine's queue counters are checked against that state throughout.
    """
    log = []
    live = {}  # id -> event handle, insertion-ordered
    posted = set()  # ids of posted entries not yet fired
    next_id = [0]

    def check():
        if not audit:
            return
        counts = engine.audit_counts()
        pending = len(live) + len(posted)
        assert engine.pending_events() == counts["pending"] == pending
        assert counts["cancelled_tracked"] == counts["cancelled_recount"]
        assert counts["queued"] - counts["cancelled_recount"] == pending

    def apply_action(action):
        if action[0] == "child":
            do_schedule(action[1], ())
        elif action[0] == "post_child":
            do_post(action[1], ())
        elif live:  # cancel_oldest
            eid = next(iter(live))
            live.pop(eid).cancel()

    def make_fire(eid, actions):
        def fire():
            log.append((engine.now, eid))
            live.pop(eid, None)
            posted.discard(eid)
            check()
            for action in actions:
                apply_action(action)
            check()

        return fire

    def do_schedule(delay, actions):
        eid = next_id[0]
        next_id[0] += 1
        live[eid] = engine.schedule(delay, make_fire(eid, actions))

    def do_post(delay, actions):
        eid = next_id[0]
        next_id[0] += 1
        posted.add(eid)
        engine.post(delay, make_fire(eid, actions))

    for op in program:
        if op[0] == "sched":
            do_schedule(op[1], op[2])
        elif op[0] == "post":
            do_post(op[1], op[2])
        elif op[0] == "cancel":
            if live:
                keys = list(live)
                live.pop(keys[op[1] % len(keys)]).cancel()
        else:  # resched: cancel one live event, schedule a replacement
            if live:
                keys = list(live)
                live.pop(keys[op[1] % len(keys)]).cancel()
            do_schedule(op[2], ())
        check()
    engine.run()
    check()
    if audit:
        assert engine.events_fired == len(log)
    return log


@given(program=_ops)
@settings(max_examples=200, deadline=None)
def test_engine_matches_reference_heap(program):
    wheel_log = _interpret(Engine(), program, audit=True)
    heap_log = _interpret(_RefEngine(), program)
    assert wheel_log == heap_log


@given(program=_ops)
@settings(max_examples=50, deadline=None)
def test_engine_is_deterministic_across_runs(program):
    assert _interpret(Engine(), program) == _interpret(Engine(), program)
