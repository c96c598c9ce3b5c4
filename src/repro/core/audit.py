"""Conservation-invariant auditor for the simulator's cycle/byte accounting.

Every claim this reproduction makes is an accounting claim: the Table-1 CPU
breakdowns are meaningful only if every simulated cycle is charged exactly
once, and throughput numbers only if every byte is counted exactly once. This
module converts those implicit identities into executable checks, run at
experiment teardown (opt-in via ``Experiment(config, audit=True)`` or the
``--audit`` CLI flag):

**Byte conservation** — per flow and per host, in TCP sequence space:

* transmit half: ``app_bytes_written == unsent_bytes + snd_nxt`` (every byte
  accepted from the application is either still buffered or was pushed into
  the sequence stream exactly once);
* receive half: ``app_bytes_read + socket unread + in-limbo == rcv_nxt``
  (every in-order byte is either already copied to userspace, waiting on the
  socket queue, or committed-but-not-yet-enqueued while its softirq CPU job
  drains);
* stream: ``writer's app bytes == reader's app bytes + unread + in-limbo +
  in-flight-or-dropped (snd_nxt - rcv_nxt) + unsent``, plus the ordering
  invariants ``snd_una <= rcv_nxt <= snd_nxt``.

**Wire conservation** — per link direction, ``frames_sent == dropped +
in-flight + delivered`` (same for wire bytes), the NIC Tx counter matches the
link's, and every delivered frame is either accepted by the peer NIC or
counted as a descriptor drop.

**Cycle conservation** — per core, cycles recorded by :class:`CpuProfiler`
equal the core's accounted busy cycles (jobs + context switches + inline
wakeup charges); per host, the profiler total equals the sum over cores;
every charged operation maps to a Table-1 category; and the category
breakdown sums to 100% of charged cycles (within 1e-6).

**Event-queue hygiene** — ``Engine.pending_events()`` is never negative and
the engine's lazy-cancellation counter matches an exact recount of cancelled
events still in the heap.

**Metrics self-consistency** — per host, the per-flow delivered-bytes map
sums to the host's delivered-bytes counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from .taxonomy import Category, categorize

if TYPE_CHECKING:  # pragma: no cover
    from .experiment import Experiment

#: Relative tolerance for floating-point cycle sums (order-of-summation only).
CYCLE_REL_TOL = 1e-9
#: Absolute tolerance for the Table-1 breakdown summing to 1.0.
BREAKDOWN_ABS_TOL = 1e-6


class AuditError(AssertionError):
    """Raised in strict mode when an accounting invariant is violated."""


@dataclass
class AuditViolation:
    """One broken invariant, with enough context to localize the bug."""

    invariant: str   # e.g. "byte.tx_half", "cycle.core", "engine.cancelled"
    where: str       # e.g. "flow 3 @ sender", "core ('receiver', 2)"
    expected: float
    actual: float
    detail: str = ""

    def render(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        return (
            f"{self.invariant} @ {self.where}: "
            f"expected {self.expected!r}, got {self.actual!r}{extra}"
        )

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "where": self.where,
            "expected": self.expected,
            "actual": self.actual,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AuditViolation":
        return cls(
            invariant=payload["invariant"],
            where=payload["where"],
            expected=payload["expected"],
            actual=payload["actual"],
            detail=payload.get("detail", ""),
        )


@dataclass
class AuditReport:
    """Outcome of one conservation audit: every check run, every violation."""

    checks_run: int = 0
    violations: List[AuditViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        if self.ok:
            return f"audit ok: {self.checks_run} conservation checks passed"
        lines = [
            f"audit FAILED: {len(self.violations)} violation(s) "
            f"in {self.checks_run} checks"
        ]
        lines.extend(f"  - {violation.render()}" for violation in self.violations)
        return "\n".join(lines)

    def raise_if_violations(self) -> None:
        if not self.ok:
            raise AuditError(self.render())

    def to_dict(self) -> dict:
        return {
            "checks_run": self.checks_run,
            "ok": self.ok,
            "violations": [violation.to_dict() for violation in self.violations],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AuditReport":
        return cls(
            checks_run=payload["checks_run"],
            violations=[
                AuditViolation.from_dict(entry) for entry in payload["violations"]
            ],
        )


class ConservationAuditor:
    """Runs every conservation check against a finished :class:`Experiment`."""

    def __init__(self, experiment: "Experiment") -> None:
        self.experiment = experiment
        self.report = AuditReport()

    # --- check helpers ----------------------------------------------------------

    def _check_exact(
        self, invariant: str, where: str, expected: float, actual: float,
        detail: str = "",
    ) -> None:
        self.report.checks_run += 1
        if expected != actual:
            self.report.violations.append(
                AuditViolation(invariant, where, expected, actual, detail)
            )

    def _check_close(
        self, invariant: str, where: str, expected: float, actual: float,
        detail: str = "", rel: float = CYCLE_REL_TOL, abs_tol: float = 1e-6,
    ) -> None:
        self.report.checks_run += 1
        if not math.isclose(expected, actual, rel_tol=rel, abs_tol=abs_tol):
            self.report.violations.append(
                AuditViolation(invariant, where, expected, actual, detail)
            )

    def _check_true(
        self, invariant: str, where: str, condition: bool, detail: str = "",
        expected: float = 1.0, actual: float = 0.0,
    ) -> None:
        self.report.checks_run += 1
        if not condition:
            self.report.violations.append(
                AuditViolation(invariant, where, expected, actual, detail)
            )

    # --- entry point ----------------------------------------------------------

    def audit(self) -> AuditReport:
        """Run all checks; returns the (reusable) report."""
        self._audit_bytes()
        self._audit_wire()
        self._audit_cycles()
        self._audit_engine()
        self._audit_metrics()
        self._audit_trace()
        return self.report

    # --- byte conservation ------------------------------------------------------

    def _audit_bytes(self) -> None:
        exp = self.experiment
        for host in (exp.sender, exp.receiver):
            for flow_id, tx in host.senders.items():
                self._check_exact(
                    "byte.tx_half", f"flow {flow_id} @ {host.name}",
                    tx.app_bytes_written, tx.unsent_bytes + tx.snd_nxt,
                    "app bytes written != send buffer + bytes pushed to stream",
                )
            for flow_id, rx in host.receivers.items():
                where = f"flow {flow_id} @ {host.name}"
                self._check_exact(
                    "byte.rx_half", where,
                    rx.rcv_nxt,
                    rx.app_bytes_read + rx.socket.unread_bytes + rx.rx_limbo_bytes,
                    "in-order bytes != read + socket queue + in-limbo",
                )
                self._check_true(
                    "byte.rx_limbo_nonnegative", where,
                    rx.rx_limbo_bytes >= 0,
                    f"rx_limbo_bytes={rx.rx_limbo_bytes}",
                )

        # Stream-level conservation between each sender half and the
        # receiver half of the same flow on the other host.
        for tx_host, rx_host in ((exp.sender, exp.receiver), (exp.receiver, exp.sender)):
            for flow_id, tx in tx_host.senders.items():
                rx = rx_host.receivers.get(flow_id)
                if rx is None:
                    continue
                where = f"flow {flow_id} {tx_host.name}->{rx_host.name}"
                self._check_true(
                    "byte.sequence_order", where,
                    tx.snd_una <= rx.rcv_nxt <= tx.snd_nxt,
                    f"snd_una={tx.snd_una} rcv_nxt={rx.rcv_nxt} "
                    f"snd_nxt={tx.snd_nxt}",
                )
                inflight_or_dropped = tx.snd_nxt - rx.rcv_nxt
                self._check_exact(
                    "byte.stream", where,
                    tx.app_bytes_written,
                    rx.app_bytes_read + rx.socket.unread_bytes
                    + rx.rx_limbo_bytes + inflight_or_dropped + tx.unsent_bytes,
                    "written != delivered + queued + in-limbo + in-flight/"
                    "dropped + unsent",
                )

        # Per-host aggregates of the same identities.
        for host in (exp.sender, exp.receiver):
            txs = host.senders.values()
            rxs = host.receivers.values()
            self._check_exact(
                "byte.host_tx", host.name,
                sum(tx.app_bytes_written for tx in txs),
                sum(tx.unsent_bytes + tx.snd_nxt for tx in txs),
            )
            self._check_exact(
                "byte.host_rx", host.name,
                sum(rx.rcv_nxt for rx in rxs),
                sum(
                    rx.app_bytes_read + rx.socket.unread_bytes + rx.rx_limbo_bytes
                    for rx in rxs
                ),
            )

    # --- wire conservation --------------------------------------------------------

    def _audit_wire(self) -> None:
        exp = self.experiment
        pairs = (
            (exp.sender.nic, exp.link_to_receiver, exp.receiver.nic),
            (exp.receiver.nic, exp.link_to_sender, exp.sender.nic),
        )
        for tx_nic, link, rx_nic in pairs:
            where = link.name
            self._check_exact(
                "wire.nic_tx", where, tx_nic.tx_frames, link.frames_sent,
                "NIC Tx frame count != link frame count",
            )
            self._check_exact(
                "wire.frames", where,
                link.frames_sent,
                link.frames_dropped + link.frames_in_flight
                + link.frames_delivered,
                "sent != dropped + in-flight + delivered",
            )
            self._check_exact(
                "wire.bytes", where,
                link.bytes_sent,
                link.bytes_dropped + link.bytes_in_flight + link.bytes_delivered,
                "wire bytes sent != dropped + in-flight + delivered",
            )
            self._check_exact(
                "wire.nic_rx", where,
                link.frames_delivered,
                rx_nic.rx_frames + rx_nic.total_rx_drops(),
                "delivered frames != NIC accepted + descriptor drops",
            )
            self._check_exact(
                "wire.nic_rx_bytes", where,
                link.bytes_delivered,
                rx_nic.rx_bytes + rx_nic.total_rx_drop_bytes(),
                "delivered wire bytes != NIC accepted + descriptor-drop bytes",
            )

    # --- cycle conservation -----------------------------------------------------------

    def _audit_cycles(self) -> None:
        exp = self.experiment
        profiler = exp.profiler
        for host in (exp.sender, exp.receiver):
            host_busy = 0.0
            for core in host.topology.cores:
                host_busy += core.busy_cycles
                self._check_close(
                    "cycle.core", f"core {core.key}",
                    core.busy_cycles, profiler.core_cycles(core.key),
                    "core busy cycles != profiler cycles for this core",
                )
            total = profiler.total_cycles(host.name)
            self._check_close(
                "cycle.host", host.name, host_busy, total,
                "sum of core busy cycles != profiler host total",
            )

            by_op = profiler.by_operation(host.name)
            unknown = [op for op in by_op if not self._classifiable(op)]
            self._check_true(
                "cycle.taxonomy_total", host.name,
                not unknown,
                f"unclassified operations: {unknown}",
                actual=float(len(unknown)),
            )
            by_cat: Dict[Category, float] = {}
            for op, cyc in by_op.items():
                if self._classifiable(op):
                    cat = categorize(op)
                    by_cat[cat] = by_cat.get(cat, 0.0) + cyc
            self._check_close(
                "cycle.category_total", host.name,
                sum(by_op.values()), sum(by_cat.values()),
                "cycles lost crossing op -> category aggregation",
            )
            if total > 0 and not unknown:
                # category_fractions itself raises on unclassifiable ops, so
                # this check only runs once the taxonomy check passed.
                fractions = profiler.category_fractions(host.name)
                self._check_close(
                    "cycle.breakdown_sum", host.name,
                    1.0, sum(fractions.values()),
                    "Table-1 breakdown does not sum to 100% of charged cycles",
                    rel=0.0, abs_tol=BREAKDOWN_ABS_TOL,
                )

    @staticmethod
    def _classifiable(op: str) -> bool:
        try:
            categorize(op)
        except KeyError:
            return False
        return True

    # --- event-queue hygiene -------------------------------------------------------------

    def _audit_engine(self) -> None:
        counts = self.experiment.engine.audit_counts()
        self._check_true(
            "engine.pending_nonnegative", "engine",
            counts["pending"] >= 0,
            f"pending_events()={counts['pending']}",
            actual=float(counts["pending"]),
        )
        self._check_exact(
            "engine.cancelled", "engine",
            counts["cancelled_recount"], counts["cancelled_tracked"],
            "lazy cancellation counter drifted from an exact heap recount",
        )
        self._check_exact(
            "engine.pending", "engine",
            counts["queued"] - counts["cancelled_recount"],
            counts["pending"],
            "pending_events() disagrees with a live-event recount",
        )

    # --- metrics self-consistency --------------------------------------------------------

    def _audit_metrics(self) -> None:
        metrics = self.experiment.metrics
        for host in (self.experiment.sender, self.experiment.receiver):
            per_flow = metrics.per_flow_delivered(host.name)
            self._check_exact(
                "metrics.per_flow_sum", host.name,
                metrics.side(host.name).delivered_bytes,
                sum(per_flow.values()),
                "per-flow delivered map does not sum to the host counter",
            )

    # --- trace consistency ---------------------------------------------------------------

    def _audit_trace(self) -> None:
        """Traced runs only: the per-stage receive deltas must telescope to
        the end-to-end copy latency (the ``e2e`` stage)."""
        hub = getattr(self.experiment, "trace", None)
        if hub is None:
            return
        report = hub.report()
        checks, violations = report.check_identity()
        # _check_true re-counts each violated check, so only the passing
        # ones are added here.
        self.report.checks_run += checks - len(violations)
        for message in violations:
            self._check_true("trace.stage_sum", message.split(":")[0], False,
                             message)


def audit_experiment(
    experiment: "Experiment", strict: bool = False
) -> AuditReport:
    """Audit a finished experiment; raise :class:`AuditError` when ``strict``."""
    report = ConservationAuditor(experiment).audit()
    if strict:
        report.raise_if_violations()
    return report


def merge_reports(reports: List[Optional[AuditReport]]) -> AuditReport:
    """Combine per-experiment reports into one (``None`` entries are skipped)."""
    merged = AuditReport()
    for report in reports:
        if report is None:
            continue
        merged.checks_run += report.checks_run
        merged.violations.extend(report.violations)
    return merged
