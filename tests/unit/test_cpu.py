"""Unit tests for the CPU core model."""

from repro.core.profiler import CpuProfiler
from repro.costs.calibration import default_cost_model
from repro.hardware.cpu import PRIORITY_APP, PRIORITY_SOFTIRQ, Core, Job
from repro.sim.engine import Engine


def make_core(freq=1e9):
    engine = Engine()
    profiler = CpuProfiler()
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


def test_job_total_cycles():
    job = Job("ctx", [("a_op", 10.0), ("b_op", 20.0)])
    assert job.total_cycles() == 30.0


def test_busy_flag():
    engine, _, core = make_core()
    assert not core.busy
    core.submit_work("a", [("copy_to_user", 100.0)])
    assert core.busy
    engine.run()
    assert not core.busy
