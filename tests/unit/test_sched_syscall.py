"""Unit tests for app threads and the syscall layer."""

import pytest

from repro.config import ExperimentConfig, TrafficPattern, WorkloadConfig
from repro.core.experiment import Experiment
from repro.kernel.sched import AppThread, ThreadState
from repro.kernel.syscall import RecvOp, SendOp
from repro.units import kb, msec


def test_recv_op_validates_sizes():
    class FakeEndpoint:
        pass

    with pytest.raises(ValueError):
        RecvOp([], 100)
    with pytest.raises(ValueError):
        RecvOp([FakeEndpoint()], 0)
    with pytest.raises(ValueError):
        RecvOp([FakeEndpoint()], 10, min_bytes=20)


def test_send_op_validates_size():
    with pytest.raises(ValueError):
        SendOp(object(), 0)


def test_thread_cannot_start_twice():
    experiment = Experiment(ExperimentConfig(duration_ns=msec(1)))
    thread = experiment.threads[0]
    experiment.engine.run(until=10_000)
    with pytest.raises(RuntimeError):
        thread.start()


def test_threads_progress_through_states():
    experiment = Experiment(ExperimentConfig(duration_ns=msec(1)))
    assert all(t.state is ThreadState.NEW for t in experiment.threads)
    experiment.engine.run(until=msec(1))
    assert all(t.state is not ThreadState.NEW for t in experiment.threads)


def test_finite_app_body_completes():
    """A generator that stops ends the thread cleanly."""
    experiment = Experiment(ExperimentConfig(duration_ns=msec(1)))
    sender_ep = experiment.sender.senders[1]

    def body(thread):
        yield SendOp(sender_ep, 1000)

    thread = AppThread("finite", experiment.sender, experiment.sender.core(5), body)
    experiment.engine.schedule(0, thread.start)
    experiment.engine.run(until=msec(1))
    assert thread.state is ThreadState.DONE


def test_multi_socket_recv_op_serves_whichever_is_ready():
    """The RPC server pattern: one thread, many sockets."""
    config = ExperimentConfig(
        pattern=TrafficPattern.RPC_INCAST,
        num_flows=4,
        duration_ns=msec(3),
        warmup_ns=msec(1),
        workload=WorkloadConfig(rpc_size_bytes=kb(4)),
    )
    experiment = Experiment(config)
    result = experiment.run()
    # every client made progress through the shared server thread
    for flow_id in experiment.receiver.receivers:
        assert experiment.metrics.flow_bytes("receiver", flow_id) > 0
    assert result.total_throughput_gbps > 0
