"""Per-stage latency tracing through the simulated stack (DESIGN.md §11).

The paper attributes *cycles* to stack layers (Table 1); this module
attributes *latency*. With ``ExperimentConfig.trace`` on, every payload unit
is timestamped at the §2.1 stage boundaries — app ``write()``, TCP transmit,
GSO/qdisc/driver, NIC Tx, wire, NIC Rx DMA, IRQ/NAPI poll, GRO + TCP receive,
socket queue, and the single data copy into userspace — and each interval
lands in a fixed log-linear streaming histogram. The histograms have no
reservoir cap (a fixed bucket vector, allocated by the first sample, absorbs
any sample count), merge by elementwise addition (associative, so
``run_many`` worker fan-out composes in any order), and round-trip
losslessly through the result export.

Stamping rules:

* Every hook reads virtual time only. Burst and copy stages read
  ``engine.now`` inside a CPU job's ``done()`` callback or a syscall path,
  where it is the job's finish time or the call instant.
* Per-frame wire stamps use the frame's own serialization finish time (the
  running ``t`` in ``Link._serialize``), because a batch is serialized in
  one event but its frames leave the wire one after another.
* Stamps run from t=0; histograms record only once the measurement window
  opens (``TraceHub.start``). A sample is recorded when its interval closes,
  so one that opens in warmup and closes in the window is recorded whole.

Tracing only reads: traced results equal untraced ones outside the trace
payload (property-tested), and untraced runs are untouched: every hook is
guarded by one ``is not None`` attribute check on a reference that is
``None`` unless tracing was requested.

The ``e2e`` stage (NAPI poll instant to copy start, per skb) is the host's
always-on copy-latency histogram from :class:`~repro.core.metrics.MetricsHub`
(Fig 3f), shared by reference, so each skb's latency is recorded once. The
auditor checks the telescoping identity
``rx_softirq.total + rx_sockq.total == e2e.total`` sample-exactly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Deltas below this are counted exactly, one bucket per nanosecond value.
#: From here on each octave [2^k, 2^(k+1)) splits into 16 linear sub-buckets
#: of 2^(k-4) ns, so a bucket is at most 1/16 of its low edge wide.
EXACT_BELOW = 32


def bucket_index(delta_ns: int) -> int:
    """Histogram bucket of a non-negative delta.

    Below ``EXACT_BELOW`` the delta is its own index. Above, with
    ``shift = bit_length - 5``, the delta's top five bits (16..31) select
    one of 16 linear sub-buckets of its octave, and each octave adds 16."""
    if delta_ns < EXACT_BELOW:
        return delta_ns
    shift = delta_ns.bit_length() - 5
    return (shift << 4) + (delta_ns >> shift)


def bucket_bounds(index: int) -> Tuple[int, int]:
    """Smallest and largest delta that :func:`bucket_index` maps to ``index``."""
    if index < EXACT_BELOW:
        return index, index
    shift = (index >> 4) - 1
    top = 16 + (index & 15)
    return top << shift, ((top + 1) << shift) - 1


#: Fixed bucket count: enough for any delta below 2^64 ns.
NUM_BUCKETS = bucket_index((1 << 64) - 1) + 1

#: The stage taxonomy, in data-path order: (key, unit, human label). The
#: ``unit`` names what one recorded sample corresponds to — stages measure
#: different granularities (a burst fans out into frames, GRO folds frames
#: back into skbs), so per-stage counts legitimately differ.
STAGES: Tuple[Tuple[str, str, str], ...] = (
    ("tx_queue", "burst", "app write() -> TCP transmit"),
    ("tx_xmit", "burst", "TCP transmit -> NIC doorbell (GSO/qdisc/driver)"),
    ("tx_wire", "frame", "NIC doorbell -> last bit serialized"),
    ("wire", "frame", "wire exit -> NIC Rx DMA"),
    ("rx_ring", "cmpl", "NIC Rx DMA -> NAPI poll (IRQ + ring wait)"),
    ("rx_softirq", "skb", "NAPI poll -> socket enqueue (GRO + TCP rx)"),
    ("rx_sockq", "skb", "socket enqueue -> recv copy start"),
    ("rx_copy", "recv", "recv copy start -> data visible to app"),
    ("e2e", "skb", "NAPI poll -> recv copy start (end-to-end)"),
)

STAGE_KEYS: Tuple[str, ...] = tuple(key for key, _, _ in STAGES)
STAGE_UNITS: Dict[str, str] = {key: unit for key, unit, _ in STAGES}
STAGE_LABELS: Dict[str, str] = {key: label for key, _, label in STAGES}


class StageHistogram:
    """Streaming log-linear histogram of non-negative nanosecond deltas.

    Exact count / total / max plus a population vector over the
    :func:`bucket_index` buckets (exact below 32 ns, then 16 linear
    sub-buckets per octave): unbounded sample streams aggregate in O(1)
    memory with no reservoir, ``avg_ns`` is exact and a percentile is off by
    at most one sub-bucket, 1/16 of its octave. The vector is allocated by
    the first recorded sample: an experiment builds every histogram before
    its window opens, and one that stays empty holds no vector.

    While ``recording`` is false (warmup) :meth:`record` and
    :meth:`record_many` record nothing; the owner's ``start`` sets it.
    """

    __slots__ = ("count", "total_ns", "max_ns", "_buckets", "recording")

    def __init__(self, recording: bool = True) -> None:
        self.count = 0
        self.total_ns = 0
        self.max_ns = 0
        self._buckets: Optional[List[int]] = None
        self.recording = recording

    def record(self, delta_ns: int) -> None:
        """Record one interval."""
        if not self.recording:
            return
        buckets = self._buckets
        if buckets is None:
            buckets = self._buckets = [0] * NUM_BUCKETS
        # bucket_index inlined, as in record_many.
        if delta_ns < EXACT_BELOW:
            buckets[delta_ns] += 1
        else:
            shift = delta_ns.bit_length() - 5
            buckets[(shift << 4) + (delta_ns >> shift)] += 1
        self.count += 1
        self.total_ns += delta_ns
        if delta_ns > self.max_ns:
            self.max_ns = delta_ns

    def record_many(self, deltas: Sequence[int]) -> None:
        """Record every interval in ``deltas``: the same count, total, max
        and buckets as calling :meth:`record` once per delta."""
        if not deltas or not self.recording:
            return
        buckets = self._buckets
        if buckets is None:
            buckets = self._buckets = [0] * NUM_BUCKETS
        for delta_ns in deltas:
            # bucket_index inlined: a call per sample costs about a third
            # of this loop, which the per-frame stages run.
            if delta_ns < EXACT_BELOW:
                buckets[delta_ns] += 1
            else:
                shift = delta_ns.bit_length() - 5
                buckets[(shift << 4) + (delta_ns >> shift)] += 1
        self.count += len(deltas)
        self.total_ns += sum(deltas)
        top = max(deltas)
        if top > self.max_ns:
            self.max_ns = top

    @property
    def buckets(self) -> List[int]:
        """The population of every bucket: a ``NUM_BUCKETS`` list."""
        return list(self._buckets) if self._buckets else [0] * NUM_BUCKETS

    def clear(self) -> None:
        """Zero in place — callers holding a reference to this histogram
        keep recording into the same object."""
        self.count = 0
        self.total_ns = 0
        self.max_ns = 0
        self._buckets = None

    def copy(self) -> "StageHistogram":
        """A detached copy: later records into either miss the other."""
        hist = StageHistogram()
        hist.count = self.count
        hist.total_ns = self.total_ns
        hist.max_ns = self.max_ns
        if self._buckets is not None:
            hist._buckets = list(self._buckets)
        return hist

    def merge(self, other: "StageHistogram") -> None:
        """Fold ``other`` into this histogram (elementwise, associative)."""
        self.count += other.count
        self.total_ns += other.total_ns
        if other.max_ns > self.max_ns:
            self.max_ns = other.max_ns
        if other._buckets is not None:
            if self._buckets is None:
                self._buckets = [0] * NUM_BUCKETS
            buckets = self._buckets
            for index, population in enumerate(other._buckets):
                buckets[index] += population

    @property
    def avg_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Estimated p-quantile: walk the buckets to the target rank, then
        interpolate linearly inside the landing bucket. Exact below 32 ns;
        elsewhere accurate to the landing sub-bucket's width."""
        if self.count == 0:
            return 0.0
        target = fraction * self.count
        accumulated = 0
        for index, population in enumerate(self._buckets or ()):
            if population == 0:
                continue
            if accumulated + population >= target:
                low, high = bucket_bounds(index)
                inside = (target - accumulated) / population
                # The landing bucket's upper edge can exceed the exact max;
                # never report a quantile above an observed value.
                return min(low + (high - low) * inside, float(self.max_ns))
            accumulated += population
        return float(self.max_ns)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total_ns": self.total_ns,
            "max_ns": self.max_ns,
            # sparse encoding: only populated buckets, keyed by index
            "buckets": {
                str(index): population
                for index, population in enumerate(self._buckets or ())
                if population
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StageHistogram":
        hist = cls()
        hist.count = payload["count"]
        hist.total_ns = payload["total_ns"]
        hist.max_ns = payload["max_ns"]
        for index, population in payload["buckets"].items():
            if population:
                if hist._buckets is None:
                    hist._buckets = [0] * NUM_BUCKETS
                hist._buckets[int(index)] = population
        return hist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StageHistogram):
            return NotImplemented
        return (
            self.count == other.count
            and self.total_ns == other.total_ns
            and self.max_ns == other.max_ns
            and self.buckets == other.buckets
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<StageHistogram n={self.count} avg={self.avg_ns:.0f}ns "
            f"max={self.max_ns}ns>"
        )


class SideTrace:
    """One host's per-stage histograms. Hot-path recorders fetch a stage's
    histogram once via :meth:`stage` and call ``record`` on it directly;
    :meth:`start` and :meth:`clear` act in place so those references stay
    live. ``e2e``, when given, is the histogram the ``e2e`` stage uses: the
    host's copy-latency metric."""

    __slots__ = ("host", "stages")

    def __init__(
        self, host: str, recording: bool = True,
        e2e: Optional[StageHistogram] = None,
    ) -> None:
        self.host = host
        self.stages: Dict[str, StageHistogram] = {
            key: StageHistogram(recording) for key in STAGE_KEYS
        }
        if e2e is not None:
            self.stages["e2e"] = e2e

    def stage(self, key: str) -> StageHistogram:
        return self.stages[key]

    def start(self) -> None:
        """Open the measurement window: every stage records from here."""
        for hist in self.stages.values():
            hist.recording = True

    def clear(self) -> None:
        for hist in self.stages.values():
            hist.clear()


class TraceHub:
    """Shared trace sink for one experiment (one :class:`SideTrace` per
    host), mirroring how :class:`~repro.core.metrics.MetricsHub` is shared.

    Built with ``recording=False``, its histograms record nothing until
    :meth:`start`; stamps on frames and skbs run regardless, so an interval
    that straddles the start is recorded whole."""

    def __init__(self, recording: bool = True) -> None:
        self.sides: Dict[str, SideTrace] = {}
        self.recording = recording

    def side(self, host: str, e2e: Optional[StageHistogram] = None) -> SideTrace:
        """``host``'s histograms, built on first request (with ``e2e`` as
        its ``e2e`` stage, see :class:`SideTrace`)."""
        side = self.sides.get(host)
        if side is None:
            side = self.sides[host] = SideTrace(host, self.recording, e2e)
        return side

    def start(self) -> None:
        """Open the measurement window on every host's histograms."""
        self.recording = True
        for side in self.sides.values():
            side.start()

    def reset(self) -> None:
        """Discard every recording (in place: recorder references held by
        the NIC/link/TCP halves stay live)."""
        for side in self.sides.values():
            side.clear()

    def report(self) -> "TraceReport":
        """Snapshot every histogram into a detached, serializable report."""
        hosts: Dict[str, Dict[str, StageHistogram]] = {}
        for name, side in self.sides.items():
            hosts[name] = {key: hist.copy() for key, hist in side.stages.items()}
        return TraceReport(hosts)


class TraceReport:
    """Serializable per-stage latency breakdown of one (or many, merged)
    traced runs: ``hosts[host][stage] -> StageHistogram``."""

    __slots__ = ("hosts",)

    def __init__(
        self, hosts: Optional[Dict[str, Dict[str, StageHistogram]]] = None
    ) -> None:
        self.hosts: Dict[str, Dict[str, StageHistogram]] = hosts or {}

    def to_dict(self) -> dict:
        return {
            host: {key: hist.to_dict() for key, hist in stages.items()}
            for host, stages in self.hosts.items()
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceReport":
        return cls(
            {
                host: {
                    key: StageHistogram.from_dict(entry)
                    for key, entry in stages.items()
                }
                for host, stages in payload.items()
            }
        )

    @classmethod
    def merge(cls, reports: Iterable["TraceReport"]) -> "TraceReport":
        """Combine reports by summing histograms (associative and
        commutative, so worker fan-out order does not matter)."""
        merged = cls()
        for report in reports:
            for host, stages in report.hosts.items():
                into = merged.hosts.setdefault(host, {})
                for key, hist in stages.items():
                    target = into.get(key)
                    if target is None:
                        into[key] = target = StageHistogram()
                    target.merge(hist)
        return merged

    def check_identity(self) -> Tuple[int, List[str]]:
        """Verify the telescoping sum per host: the receive-side interval
        stages recorded per skb must add up — count-exactly and
        nanosecond-exactly — to the end-to-end stream.

        Returns ``(checks_run, violations)``; empty violations means the
        identity holds. Usable on live reports and on round-tripped ones
        (the CLI re-checks after the worker/cache boundary).
        """
        checks = 0
        violations: List[str] = []
        for host in sorted(self.hosts):
            stages = self.hosts[host]
            softirq = stages.get("rx_softirq")
            sockq = stages.get("rx_sockq")
            e2e = stages.get("e2e")
            if softirq is None or sockq is None or e2e is None:
                continue
            checks += 1
            if not (softirq.count == sockq.count == e2e.count):
                violations.append(
                    f"{host}: stage sample counts diverge "
                    f"(rx_softirq={softirq.count} rx_sockq={sockq.count} "
                    f"e2e={e2e.count})"
                )
            checks += 1
            if softirq.total_ns + sockq.total_ns != e2e.total_ns:
                violations.append(
                    f"{host}: rx_softirq.total + rx_sockq.total != e2e.total "
                    f"({softirq.total_ns} + {sockq.total_ns} != {e2e.total_ns})"
                )
        return checks, violations

    def to_table(self, title: str):
        """Render the per-stage breakdown as a figures-style table
        (microseconds; stages in data-path order, hosts alphabetical)."""
        from .core.report import Table

        table = Table(
            title=title,
            columns=[
                "host", "stage", "unit", "count",
                "avg_us", "p50_us", "p99_us", "max_us",
            ],
        )
        for host in sorted(self.hosts):
            stages = self.hosts[host]
            for key in STAGE_KEYS:
                hist = stages.get(key)
                if hist is None or hist.count == 0:
                    continue
                table.add_row(
                    host,
                    f"{key}: {STAGE_LABELS[key]}",
                    STAGE_UNITS[key],
                    hist.count,
                    hist.avg_ns / 1e3,
                    hist.percentile(0.50) / 1e3,
                    hist.percentile(0.99) / 1e3,
                    hist.max_ns / 1e3,
                )
        return table

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceReport):
            return NotImplemented
        return self.hosts == other.hosts

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TraceReport hosts={sorted(self.hosts)}>"
