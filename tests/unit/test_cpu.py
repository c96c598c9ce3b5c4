"""Unit tests for the CPU core model."""

from repro.core.profiler import CpuProfiler
from repro.costs.calibration import default_cost_model
import pytest

from repro.hardware.cpu import PRIORITY_APP, PRIORITY_SOFTIRQ, Core
from repro.sim.engine import Engine


def make_core(freq=1e9, recording=True):
    engine = Engine()
    profiler = CpuProfiler(recording=recording)
    costs = default_cost_model()
    core = Core(engine, profiler, costs, "receiver", 0, 0, freq)
    return engine, profiler, core


def test_job_duration_matches_cycles():
    engine, profiler, core = make_core(freq=1e9)  # 1 cycle == 1ns
    done_at = []
    core.submit_work("ctx", [("copy_to_user", 500.0)], lambda: done_at.append(engine.now))
    engine.run()
    assert done_at == [500]
    assert profiler.core_cycles(core.key) == 500


def test_jobs_serialize():
    engine, _, core = make_core(freq=1e9)
    finish = []
    core.submit_work("a", [("copy_to_user", 100.0)], lambda: finish.append(engine.now))
    core.submit_work("a", [("copy_to_user", 100.0)], lambda: finish.append(engine.now))
    engine.run()
    assert finish == [100, 200]


def test_softirq_priority_runs_first():
    engine, _, core = make_core()
    order = []
    # Occupy the core so both queued jobs are pending when it frees up.
    core.submit_work("busy", [("copy_to_user", 10.0)])
    core.submit_work("app", [("copy_to_user", 10.0)], lambda: order.append("app"),
                     PRIORITY_APP)
    core.submit_work(("softirq", 0), [("napi_poll", 10.0)],
                     lambda: order.append("softirq"), PRIORITY_SOFTIRQ)
    engine.run()
    assert order == ["softirq", "app"]


def test_interleaved_priorities_drain_softirq_first_in_order():
    engine, _, core = make_core()
    order = []
    core.submit_work("busy", [("copy_to_user", 10.0)])
    for name, priority in (("app1", PRIORITY_APP), ("softirq1", PRIORITY_SOFTIRQ),
                           ("app2", PRIORITY_APP), ("softirq2", PRIORITY_SOFTIRQ)):
        core.submit_work(name, [("copy_to_user", 1.0)],
                         lambda n=name: order.append(n), priority)
    assert core.queue_depth() == 4
    engine.run()
    assert order == ["softirq1", "softirq2", "app1", "app2"]


def test_context_switch_charged_between_contexts():
    engine, profiler, core = make_core()
    core.submit_work("a", [("copy_to_user", 10.0)])
    core.submit_work("b", [("copy_to_user", 10.0)])
    engine.run()
    assert core.context_switches == 1
    by_op = profiler._cycles[core.key]
    assert by_op["__schedule"] == core.costs.context_switch_cycles


def test_no_context_switch_within_same_context():
    engine, _, core = make_core()
    core.submit_work("same", [("copy_to_user", 10.0)])
    core.submit_work("same", [("copy_to_user", 10.0)])
    engine.run()
    assert core.context_switches == 0


def test_fifo_within_priority():
    engine, _, core = make_core()
    order = []
    core.submit_work("busy", [("copy_to_user", 10.0)])
    for name in ("one", "two", "three"):
        core.submit_work(name, [("copy_to_user", 1.0)],
                         lambda n=name: order.append(n))
    engine.run()
    assert order == ["one", "two", "three"]


def test_queue_depth():
    engine, _, core = make_core()
    core.submit_work("a", [("copy_to_user", 100.0)])
    core.submit_work("b", [("copy_to_user", 100.0)])
    assert core.queue_depth() == 1  # one running, one queued
    engine.run()
    assert core.queue_depth() == 0


def test_busy_flag():
    engine, _, core = make_core()
    assert not core.busy
    core.submit_work("a", [("copy_to_user", 100.0)])
    assert core.busy
    engine.run()
    assert not core.busy


def test_idle_core_starts_app_job_at_once():
    engine, _, core = make_core(freq=2e9)
    done_at = []
    core.submit_work("app", [("copy_to_user", 1000.0)],
                     lambda: done_at.append(engine.now), PRIORITY_APP)
    # Started on submission: nothing queued, the core already busy.
    assert core.busy
    assert core.queue_depth() == 0
    engine.run()
    assert done_at == [500]  # cycles / freq
    assert not core.busy


def test_queue_depth_counts_only_queued_jobs():
    engine, _, core = make_core()
    core.submit_work("a", [("copy_to_user", 100.0)])
    assert core.queue_depth() == 0  # running, not queued
    core.submit_work("b", [("copy_to_user", 100.0)])
    core.submit_work(("softirq", 0), [("napi_poll", 100.0)], None, PRIORITY_SOFTIRQ)
    assert core.queue_depth() == 2
    engine.run(until=100)  # "a" finished, the softirq job started
    assert core.busy and core.queue_depth() == 1
    engine.run()
    assert core.queue_depth() == 0 and not core.busy


@pytest.mark.parametrize("priority", [PRIORITY_SOFTIRQ, PRIORITY_APP])
def test_job_submitted_from_on_done_runs_after_queued_jobs(priority):
    # The core is idle while an on_done runs, but a softirq job is still
    # queued: a job submitted from that on_done must wait behind it.
    engine, _, core = make_core()
    log = []

    def first_done():
        log.append(("first", engine.now))
        core.submit_work("same", [("copy_to_user", 100.0)],
                         lambda: log.append(("late", engine.now)), priority)

    core.submit_work("same", [("copy_to_user", 100.0)], first_done)
    core.submit_work("same", [("napi_poll", 100.0)],
                     lambda: log.append(("queued", engine.now)), PRIORITY_SOFTIRQ)
    engine.run()
    # "late" starts at the queued job's finish time (200) and runs 100 ns.
    assert log == [("first", 100), ("queued", 200), ("late", 300)]
    assert core.context_switches == 0


def test_negative_charge_raises_before_and_after_profiler_start():
    # Before the profiler's window opens (warmup) charges are only summed;
    # after it they are recorded. Both paths reject a negative charge, and
    # the rejected job does not occupy the core.
    engine, profiler, core = make_core(recording=False)
    with pytest.raises(ValueError, match="negative cycle charge"):
        core.submit_work("a", [("copy_to_user", 10.0), ("napi_poll", -1.0)])
    assert not core.busy
    profiler.start()
    with pytest.raises(ValueError, match="negative cycle charge"):
        core.submit_work("a", [("copy_to_user", 10.0), ("napi_poll", -1.0)])
    assert not core.busy
