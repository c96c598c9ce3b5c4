"""Per-core, per-operation CPU cycle accounting.

This plays the role of ``perf`` in the paper's methodology (§2.2): every cycle
a simulated core burns is attributed to a kernel operation, which maps to a
Table-1 category. Unlike sampling-based profiling, attribution here is exact.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, Iterable, Tuple

from .taxonomy import Category, categorize

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.cpu import Core


class CpuProfiler:
    """Collects cycles charged by cores, keyed by (core, operation).

    An experiment builds its profiler with ``recording=False`` and calls
    :meth:`start` when the measurement window opens, mirroring how the paper
    measures steady state: warmup charges are validated and summed (the
    model needs each job's duration) but never reach the ledger.
    """

    def __init__(self, recording: bool = True) -> None:
        # {core_key: {op: cycles}}
        self._cycles: Dict[Tuple[str, int], Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.recording = recording

    def start(self) -> None:
        """Open the measurement window: record every later charge."""
        self.recording = True

    def charge(self, core: "Core", op: str, cycles: float) -> None:
        """Attribute ``cycles`` of work on ``core`` to kernel operation ``op``."""
        if cycles < 0:
            raise ValueError(f"negative cycle charge: {cycles} for {op}")
        if cycles and self.recording:
            self._cycles[core.key][op] += cycles

    def charge_items(self, core: "Core", items) -> float:
        """Charge a batch of ``(op, cycles)`` items; return their plain sum.

        Equivalent to calling :meth:`charge` per item (same order, same
        accumulation), with the per-core dict lookup hoisted out of the loop.
        The dict entry is created lazily so a batch of all-zero charges does
        not mark the core busy (matching :meth:`charge`).
        """
        total = 0.0
        if not self.recording:
            for op, cycles in items:
                if cycles < 0:
                    raise ValueError(f"negative cycle charge: {cycles} for {op}")
                total += cycles
            return total
        ops = self._cycles.get(core.key)
        for op, cycles in items:
            if cycles:
                if cycles < 0:
                    raise ValueError(f"negative cycle charge: {cycles} for {op}")
                if ops is None:
                    ops = self._cycles[core.key]
                ops[op] += cycles
            total += cycles
        return total

    def reset(self) -> None:
        """Discard all recorded cycles."""
        self._cycles.clear()

    # --- queries ---------------------------------------------------------------

    def core_cycles(self, core_key: Tuple[str, int]) -> float:
        """Total busy cycles recorded for one core."""
        return sum(self._cycles.get(core_key, {}).values())

    def total_cycles(self, host: str) -> float:
        """Total busy cycles across all cores of ``host``."""
        return sum(
            sum(ops.values()) for key, ops in self._cycles.items() if key[0] == host
        )

    def busy_core_keys(self, host: str) -> Iterable[Tuple[str, int]]:
        """Core keys of ``host`` that recorded any cycles."""
        return [key for key in self._cycles if key[0] == host]

    def by_operation(self, host: str) -> Dict[str, float]:
        """Cycles per kernel operation, aggregated over all cores of ``host``."""
        out: Dict[str, float] = defaultdict(float)
        for key, ops in self._cycles.items():
            if key[0] != host:
                continue
            for op, cyc in ops.items():
                out[op] += cyc
        return dict(out)

    def by_category(self, host: str) -> Dict[Category, float]:
        """Cycles per Table-1 category, aggregated over all cores of ``host``."""
        out: Dict[Category, float] = defaultdict(float)
        for op, cyc in self.by_operation(host).items():
            out[categorize(op)] += cyc
        return dict(out)

    def category_fractions(self, host: str) -> Dict[Category, float]:
        """Fraction of busy cycles per category for ``host`` (sums to 1.0).

        This is the quantity plotted in the paper's CPU-breakdown figures
        (e.g., Fig 3c/3d).
        """
        by_cat = self.by_category(host)
        total = sum(by_cat.values())
        if total <= 0:
            return {cat: 0.0 for cat in Category}
        return {cat: by_cat.get(cat, 0.0) / total for cat in Category}
