"""Application threads and their scheduling.

An :class:`AppThread` runs a generator ("the application") that yields
syscall operations (see :mod:`repro.kernel.syscall`). The kernel executes each
operation — charging CPU on the thread's core — and resumes the generator
with the result. Threads block inside the kernel (empty socket on ``recv``,
full send buffer on ``send``); wakeups charge scheduler cycles on the *waking*
core, and the thread's next job charges a context switch on its own core,
which is how the paper's "scheduling" category grows when cores go idle
between bursts (§3.2) or many threads share a core (§3.3, §3.7).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.cpu import Core
    from .host import Host


class ThreadState(enum.Enum):
    NEW = "new"
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    DONE = "done"


# Enum member lookups (``ThreadState.DONE``) go through the enum machinery
# on every access, about ten times the cost of a module global; the states
# a thread passes through on every syscall are read from these instead.
_RUNNABLE = ThreadState.RUNNABLE
_BLOCKED = ThreadState.BLOCKED
_DONE = ThreadState.DONE


class AppThread:
    """One application thread pinned to a core."""

    def __init__(
        self,
        name: str,
        host: "Host",
        core: "Core",
        body_factory: Callable[["AppThread"], Generator],
    ) -> None:
        self.name = name
        self.host = host
        self.core = core
        self.state = ThreadState.NEW
        self._body_factory = body_factory
        self._gen: Optional[Generator] = None

    def start(self) -> None:
        """Begin executing the application body."""
        if self.state is not ThreadState.NEW:
            raise RuntimeError(f"thread {self.name} already started")
        self.state = ThreadState.RUNNABLE
        self._gen = self._body_factory(self)
        self.complete_op(None)

    def complete_op(self, value: Any) -> None:
        """Called by the kernel when the thread's pending operation finishes:
        resume the body with ``value`` and execute its next syscall."""
        if self.state is _DONE:
            return
        self.state = _RUNNABLE
        try:
            op = self._gen.send(value)
        except StopIteration:
            self.state = _DONE
            return
        op.execute(self)

    def block(self) -> None:
        """Mark the thread as blocked inside the kernel."""
        self.state = _BLOCKED

    def __repr__(self) -> str:  # pragma: no cover
        return f"<AppThread {self.name} on {self.core.host_name}/{self.core.core_id}>"


def charge_wakeup(waker_core: "Core") -> None:
    """Charge scheduler cycles for waking a blocked thread.

    The charge lands on the waking core (as ``try_to_wake_up`` does in Linux);
    it is recorded instantaneously rather than occupying core time, a <2%
    approximation documented in DESIGN.md.
    """
    waker_core.charge_inline("try_to_wake_up", waker_core.costs.wakeup_cycles)
