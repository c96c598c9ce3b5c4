"""Application bodies.

These mirror the paper's tools (§2.2): iperf-style streaming (one-directional
bulk transfer with large writes/reads) and netperf-style ping-pong RPC with
equal request/response sizes. Both do minimal application-level processing so
measurements isolate the network stack.

Each function returns a ``body_factory`` suitable for
:class:`repro.kernel.sched.AppThread`: a generator yielding syscall ops.
"""

from __future__ import annotations

from typing import Callable, Generator, Sequence, Tuple

from ..kernel.syscall import RecvOp, SendOp
from ..kernel.tcp.receiver import TcpReceiver
from ..kernel.tcp.sender import TcpSender

BodyFactory = Callable[[object], Generator]


def streaming_sender(sender: TcpSender, write_bytes: int) -> BodyFactory:
    """iperf sender: write ``write_bytes`` forever."""

    def body(thread) -> Generator:
        while True:
            yield SendOp(sender, write_bytes)

    return body


def streaming_receiver(receiver: TcpReceiver, read_bytes: int) -> BodyFactory:
    """iperf receiver: drain the socket forever."""

    def body(thread) -> Generator:
        while True:
            yield RecvOp((receiver,), read_bytes)

    return body


def rpc_client(sender: TcpSender, rpc_bytes: int) -> BodyFactory:
    """netperf-style client: send a request on ``sender``, wait for the full
    response on the same connection's receive half."""

    def body(thread) -> Generator:
        while True:
            yield SendOp(sender, rpc_bytes)
            received = 0
            while received < rpc_bytes:
                _, nbytes = yield RecvOp((sender.receiver,), rpc_bytes - received)
                received += nbytes

    return body


def rpc_server(receivers: Sequence[TcpReceiver], rpc_bytes: int) -> BodyFactory:
    """RPC server multiplexing any number of ping-pong connections in one
    thread (the Fig-10 receiver application). It answers each completed
    request on the transmit half of the connection it arrived on."""

    rxs: Tuple[TcpReceiver, ...] = tuple(receivers)

    def body(thread) -> Generator:
        progress = {rx.flow_id: 0 for rx in rxs}
        while True:
            rx, nbytes = yield RecvOp(rxs, rpc_bytes)
            progress[rx.flow_id] += nbytes
            if progress[rx.flow_id] >= rpc_bytes:
                progress[rx.flow_id] = 0
                yield SendOp(rx.sender, rpc_bytes)

    return body
