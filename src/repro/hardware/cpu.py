"""CPU core model.

A :class:`Core` is a serially-shared resource: kernel and application work is
submitted as :class:`Job` objects (batches of cycle charges) that execute
non-preemptively, ordered by priority (softirq before application threads,
like ksoftirqd-less inline softirq processing in Linux) and FIFO within a
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


class Job:
    """A batch of cycle charges executed atomically on one core."""

    __slots__ = ("context", "priority", "items", "on_done")

    def __init__(
        self,
        context: Hashable,
        items: Sequence[Tuple[str, float]],
        on_done: Optional[Callable[[], None]] = None,
        priority: int = PRIORITY_APP,
    ) -> None:
        self.context = context
        self.priority = priority
        # held by reference: callers hand over freshly-built batches and must
        # not mutate them after submission
        self.items = items
        self.on_done = on_done

    def total_cycles(self) -> float:
        return sum(cycles for _, cycles in self.items)


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

        # One FIFO per priority; softirq drains before app.
        self._softirq_queue: Deque[Job] = deque()
        self._app_queue: Deque[Job] = deque()
        self._running: Optional[Job] = None
        self._last_context: Optional[Hashable] = None
        self.context_switches = 0
        #: Every cycle this core has accounted for (jobs, context switches,
        #: inline charges). Mirrors the profiler's per-core total by
        #: construction; the conservation auditor cross-checks the two.
        self.busy_cycles = 0.0

    # --- submission ----------------------------------------------------------

    def submit(self, job: Job) -> None:
        """Queue ``job``; starts immediately if the core is idle."""
        if job.priority == PRIORITY_SOFTIRQ:
            self._softirq_queue.append(job)
        else:
            self._app_queue.append(job)
        if self._running is None:
            self._start_next()

    def submit_work(
        self,
        context: Hashable,
        items: Sequence[Tuple[str, float]],
        on_done: Optional[Callable[[], None]] = None,
        priority: int = PRIORITY_APP,
    ) -> Job:
        """Convenience wrapper building and submitting a :class:`Job`."""
        job = Job(context, items, on_done, priority)
        self.submit(job)
        return job

    # --- execution ---------------------------------------------------------------

    def _start_next(self) -> None:
        if self._softirq_queue:
            job = self._softirq_queue.popleft()
        elif self._app_queue:
            job = self._app_queue.popleft()
        else:
            return
        self._running = job

        switch = 0.0
        if self._last_context is not None and job.context != self._last_context:
            # Switching between softirq and app contexts (or between threads)
            # costs scheduler work, charged to the SCHED category.
            switch = self.costs.context_switch_cycles
            self.profiler.charge(self, "__schedule", switch)
            self.context_switches += 1
        self._last_context = job.context

        cycles = self.profiler.charge_items(self, job.items) + switch
        self.busy_cycles += cycles

        duration_ns = max(1, int(cycles / self.freq_hz * 1e9))
        self.engine.schedule(duration_ns, self._finish, job)

    def _finish(self, job: Job) -> None:
        assert self._running is job
        self._running = None
        if job.on_done is not None:
            job.on_done()
        if self._running is None:
            self._start_next()

    # --- direct charges ------------------------------------------------------------

    def charge_inline(self, op: str, cycles: float) -> None:
        """Charge ``cycles`` to ``op`` without occupying core time.

        For instantaneous charges recorded outside a :class:`Job` (e.g. the
        ``try_to_wake_up`` cost on a waking core). Keeps ``busy_cycles`` in
        lock-step with the profiler so cycle conservation still balances.
        """
        self.profiler.charge(self, op, cycles)
        self.busy_cycles += cycles

    def reset_cycle_accounting(self) -> None:
        """Discard accumulated busy cycles (paired with ``CpuProfiler.reset``)."""
        self.busy_cycles = 0.0

    # --- queries -------------------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self._running is not None

    def queue_depth(self) -> int:
        """Number of jobs waiting (not counting the running one)."""
        return len(self._softirq_queue) + len(self._app_queue)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Core {self.host_name}/{self.core_id} node={self.numa_node}>"
