"""CPU core model.

A :class:`Core` is a serially-shared resource: kernel and application work is
submitted as jobs (batches of cycle charges) that execute non-preemptively,
ordered by priority (softirq before application threads, like
ksoftirqd-less inline softirq processing in Linux) and FIFO within a
priority. Context switches between different execution contexts charge
scheduler cycles, which is how the paper's "scheduling" category fills up.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Hashable, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..core.profiler import CpuProfiler
    from ..costs.model import CostModel
    from ..sim.engine import Engine

#: Priority for softirq (network processing) jobs: runs before app jobs.
PRIORITY_SOFTIRQ = 0
#: Priority for application thread jobs.
PRIORITY_APP = 1


def _noop() -> None:
    """The completion callback of a job submitted without one."""


class Job:
    """A batch of cycle charges waiting for its core.

    Built only when a job has to queue: a job submitted to an idle core with
    empty queues starts at once, and the running job lives on the core as its
    ``on_done`` callback alone.
    """

    __slots__ = ("context", "items", "on_done")

    def __init__(
        self,
        context: Hashable,
        items: Sequence[Tuple[str, float]],
        on_done: Callable[[], None],
    ) -> None:
        self.context = context
        # held by reference: callers hand over freshly-built batches and must
        # not mutate them after submission
        self.items = items
        self.on_done = on_done


class Core:
    """One CPU core: executes jobs serially and accounts every cycle."""

    def __init__(
        self,
        engine: "Engine",
        profiler: "CpuProfiler",
        costs: "CostModel",
        host_name: str,
        core_id: int,
        numa_node: int,
        freq_hz: float,
    ) -> None:
        self.engine = engine
        self.profiler = profiler
        self.costs = costs
        self.host_name = host_name
        self.core_id = core_id
        self.numa_node = numa_node
        self.freq_hz = freq_hz
        self.key = (host_name, core_id)
        #: The execution context of every softirq job on this core, built
        #: once: equal contexts never pay a context switch.
        self.softirq_context = ("softirq", core_id)

        # One FIFO per priority; softirq drains before app.
        self._softirq_queue: Deque[Job] = deque()
        self._app_queue: Deque[Job] = deque()
        #: Completion callback of the running job; None while idle.
        self._on_done: Optional[Callable[[], None]] = None
        self._last_context: Optional[Hashable] = None
        self.context_switches = 0
        #: Every cycle this core has accounted for (jobs, context switches,
        #: inline charges). Mirrors the profiler's per-core total by
        #: construction; the conservation auditor cross-checks the two.
        self.busy_cycles = 0.0

    # --- submission ----------------------------------------------------------

    def submit_work(
        self,
        context: Hashable,
        items: Sequence[Tuple[str, float]],
        on_done: Optional[Callable[[], None]] = None,
        priority: int = PRIORITY_APP,
    ) -> None:
        """Run ``items`` in ``context`` on this core, then call ``on_done``.

        Starts at once when the core is idle with both queues empty;
        otherwise queues behind every job of equal or higher priority.
        """
        if on_done is None:
            on_done = _noop
        if self._on_done is None and not self._softirq_queue and not self._app_queue:
            self._start(context, items, on_done)
            return
        # The core is busy, or idle inside ``_finish`` (an ``on_done`` is
        # submitting) with jobs still queued: those run first.
        if priority == PRIORITY_SOFTIRQ:
            self._softirq_queue.append(Job(context, items, on_done))
        else:
            self._app_queue.append(Job(context, items, on_done))
        if self._on_done is None:
            self._start_queued()

    # --- execution ---------------------------------------------------------------

    def _start(
        self,
        context: Hashable,
        items: Sequence[Tuple[str, float]],
        on_done: Callable[[], None],
    ) -> None:
        switch = 0.0
        last = self._last_context
        if context is not last and last is not None and context != last:
            # Switching between softirq and app contexts (or between threads)
            # costs scheduler work, charged to the SCHED category.
            switch = self.costs.context_switch_cycles
            self.profiler.charge(self, "__schedule", switch)
            self.context_switches += 1
        self._last_context = context

        cycles = self.profiler.charge_items(self, items) + switch
        self.busy_cycles += cycles
        self._on_done = on_done
        duration_ns = int(cycles / self.freq_hz * 1e9)
        self.engine.schedule(duration_ns if duration_ns > 0 else 1, self._finish)

    def _start_queued(self) -> None:
        """Start the head queued job, softirq first (some queue holds one)."""
        job = (self._softirq_queue or self._app_queue).popleft()
        self._start(job.context, job.items, job.on_done)

    def _finish(self) -> None:
        on_done = self._on_done
        self._on_done = None
        on_done()
        if self._on_done is None and (self._softirq_queue or self._app_queue):
            self._start_queued()

    # --- direct charges ------------------------------------------------------------

    def charge_inline(self, op: str, cycles: float) -> None:
        """Charge ``cycles`` to ``op`` without occupying core time.

        For instantaneous charges recorded outside a job (e.g. the
        ``try_to_wake_up`` cost on a waking core). Keeps ``busy_cycles`` in
        lock-step with the profiler so cycle conservation still balances.
        """
        self.profiler.charge(self, op, cycles)
        self.busy_cycles += cycles

    def reset_cycle_accounting(self) -> None:
        """Discard accumulated busy cycles (paired with ``CpuProfiler.start``)."""
        self.busy_cycles = 0.0

    # --- queries -------------------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self._on_done is not None

    def queue_depth(self) -> int:
        """Number of jobs waiting (not counting the running one)."""
        return len(self._softirq_queue) + len(self._app_queue)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Core {self.host_name}/{self.core_id} node={self.numa_node}>"
