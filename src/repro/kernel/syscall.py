"""Blocking socket syscalls yielded by application threads.

Application bodies are generators that ``yield`` these operations; the kernel
executes them (charging CPU on the thread's core) and resumes the generator
with the result:

* ``SendOp`` resumes with the number of bytes written (always all of them —
  it blocks on send-buffer space internally).
* ``RecvOp`` resumes with ``(receiver, nbytes)`` — it completes once any of
  the watched receive halves has at least ``min_bytes`` available, then
  copies up to ``max_bytes`` to userspace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .sched import AppThread
    from .tcp.receiver import TcpReceiver
    from .tcp.sender import TcpSender


class SendOp:
    """``send(fd, buf, nbytes)`` — blocks until fully copied into the kernel."""

    def __init__(self, sender: "TcpSender", nbytes: int) -> None:
        if nbytes <= 0:
            raise ValueError("SendOp needs a positive byte count")
        self.sender = sender
        self.nbytes = nbytes

    def execute(self, thread: "AppThread") -> None:
        self.sender.sendmsg(thread, self.nbytes, thread.complete_op)


class RecvOp:
    """``recv``/``epoll_wait+recv`` over one or more connections."""

    __slots__ = ("receivers", "max_bytes", "min_bytes", "thread", "_ready")

    def __init__(
        self,
        receivers: Sequence["TcpReceiver"],
        max_bytes: int,
        min_bytes: int = 1,
    ) -> None:
        if not receivers:
            raise ValueError("RecvOp needs at least one receiver")
        if max_bytes <= 0 or min_bytes <= 0 or min_bytes > max_bytes:
            raise ValueError(
                f"invalid RecvOp sizes: max={max_bytes} min={min_bytes}"
            )
        # A tuple argument is kept as is (``tuple()`` does not copy it): a
        # server re-issuing its recv over the same connections copies nothing.
        self.receivers: Tuple["TcpReceiver", ...] = tuple(receivers)
        self.max_bytes = max_bytes
        self.min_bytes = min_bytes
        self.thread: "AppThread" = None  # type: ignore[assignment]
        #: The receiver being drained.
        self._ready: "TcpReceiver" = None  # type: ignore[assignment]

    def execute(self, thread: "AppThread") -> None:
        self.thread = thread
        min_bytes = self.min_bytes
        for receiver in self.receivers:
            if receiver.socket.unread_bytes >= min_bytes:
                self._start_drain(receiver)
                return
        # Nothing ready: wait on every watched socket.
        for receiver in self.receivers:
            receiver.socket.waiter = self
        thread.block()

    def fulfill(self) -> None:
        """Called from softirq once some watched socket has enough data."""
        min_bytes = self.min_bytes
        ready = None
        for receiver in self.receivers:
            socket = receiver.socket
            if socket.waiter is self:
                socket.waiter = None
            if ready is None and socket.unread_bytes >= min_bytes:
                ready = receiver
        if ready is not None:
            self._start_drain(ready)
            return
        # Spurious wakeup (e.g. drained by a racing path): re-arm.
        for receiver in self.receivers:
            receiver.socket.waiter = self
        self.thread.block()

    def _start_drain(self, receiver: "TcpReceiver") -> None:
        self._ready = receiver
        receiver.do_recv(self.thread, self.max_bytes, self._complete)

    def _complete(self, nbytes: int) -> None:
        self.thread.complete_op((self._ready, nbytes))
