"""Unit tests for the application bodies (iperf/netperf models)."""

from repro.config import ExperimentConfig, TrafficPattern, WorkloadConfig
from repro.core.experiment import Experiment
from repro.kernel.syscall import RecvOp, SendOp
from repro.units import kb, msec
from repro.workloads.apps import (
    rpc_client,
    rpc_server,
    streaming_receiver,
    streaming_sender,
)


def make_sender():
    experiment = Experiment(ExperimentConfig(duration_ns=msec(1)))
    return experiment.sender.senders[1]


def make_receiver():
    experiment = Experiment(ExperimentConfig(duration_ns=msec(1)))
    return experiment.receiver.receivers[1]


def test_streaming_sender_yields_sends():
    endpoint = make_sender()
    body = streaming_sender(endpoint, 4096)(None)
    for _ in range(3):
        op = body.send(None)
        assert isinstance(op, SendOp)
        assert op.nbytes == 4096


def test_streaming_receiver_yields_recvs():
    endpoint = make_receiver()
    body = streaming_receiver(endpoint, 8192)(None)
    op = body.send(None)
    assert isinstance(op, RecvOp)
    assert op.max_bytes == 8192
    assert op.min_bytes == 1


def test_rpc_client_alternates_send_and_recv():
    endpoint = make_sender()
    body = rpc_client(endpoint, 4096)(None)
    first = body.send(None)
    assert isinstance(first, SendOp) and first.nbytes == 4096
    second = body.send(None)
    assert isinstance(second, RecvOp)
    # partial response: client keeps reading until the message completes
    third = body.send((endpoint, 1000))
    assert isinstance(third, RecvOp) and third.max_bytes == 3096
    fourth = body.send((endpoint, 3096))
    assert isinstance(fourth, SendOp)  # next request


def test_rpc_server_responds_after_full_request():
    endpoint = make_receiver()
    body = rpc_server([endpoint], 4096)(None)
    op = body.send(None)
    assert isinstance(op, RecvOp)
    # half a request: keep reading
    op = body.send((endpoint, 2048))
    assert isinstance(op, RecvOp)
    # request completes: respond
    op = body.send((endpoint, 2048))
    assert isinstance(op, SendOp) and op.nbytes == 4096


def test_rpc_server_tracks_progress_per_connection():
    experiment = Experiment(
        ExperimentConfig(
            pattern=TrafficPattern.RPC_INCAST,
            num_flows=2,
            duration_ns=msec(1),
            workload=WorkloadConfig(rpc_size_bytes=kb(4)),
        )
    )
    eps = list(experiment.receiver.receivers.values())
    body = rpc_server(eps, 4096)(None)
    body.send(None)
    # interleave partial requests from two connections
    op = body.send((eps[0], 2048))
    assert isinstance(op, RecvOp)
    op = body.send((eps[1], 4096))      # second connection completes first
    assert isinstance(op, SendOp)
