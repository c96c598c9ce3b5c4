#!/usr/bin/env python
"""CI perf gate: engine micro-benchmarks and figure costs vs the baseline.

Two gates against ``benchmarks/baseline_engine.json``:

* **Engine** — the event-engine micro-benchmarks (same workloads as
  ``benchmarks/test_bench_engine.py`` and ``repro bench``), compared by
  *calibration-normalized* throughput. Fails when either path drops more
  than the tolerance (default 25%) below baseline.
* **Figures** — each gated panel is regenerated cold and its normalized
  cost (wall time × calibration throughput, a machine-independent work
  unit) is held under the baseline ceiling, with tolerance headroom. Each
  panel is also re-run with per-stage latency tracing on; the
  traced/untraced wall-time ratio must stay under ``MAX_TRACE_OVERHEAD``.

Usage::

    PYTHONPATH=src python tools/check_bench_regression.py
    PYTHONPATH=src python tools/check_bench_regression.py --figures none
    PYTHONPATH=src python tools/check_bench_regression.py --update  # re-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import bench  # noqa: E402

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "benchmarks" / "baseline_engine.json"

#: Allowed fractional wall-time increase of a traced run over the same
#: panel with tracing off. The tracing-off cost itself is gated by the
#: baseline's ``max_normalized_cost`` ceiling (tracing off is the default
#: everywhere, including the golden-digest gate); this ratio — measured on
#: the same machine in the same process, so it needs no baseline entry —
#: bounds what turning tracing ON may cost. Kept in the tool so
#: ``--update`` can never weaken it.
MAX_TRACE_OVERHEAD = 0.50


def _time_figure(name: str, repeat: int, trace: bool = False):
    """Best-of-N cold wall time and engine events fired for one panel."""
    from repro.cli import _run_panel
    from repro.figures import base as figures_base

    best = float("inf")
    for _ in range(repeat):
        figures_base.STATS.reset()
        start = time.perf_counter()
        _run_panel(name, jobs=1, cache=None, audit=False, trace=trace)
        best = min(best, time.perf_counter() - start)
    return best, figures_base.STATS.events_fired


def _figure_metrics(names, repeat: int, calibration_ops: float):
    rows = {}
    for name in names:
        print(f"figure gate: timing {name} (untraced / traced)...")
        wall, events = _time_figure(name, repeat)
        wall_traced, _ = _time_figure(name, repeat, trace=True)
        rows[name] = {
            "normalized_cost": wall * calibration_ops,
            "events_fired": events,
            "trace_overhead": wall_traced / wall - 1.0 if wall else 0.0,
        }
        print(
            f"  {name}: {wall:.3f}s wall, {events:,} events; traced "
            f"{wall_traced:.3f}s ({rows[name]['trace_overhead']:+.1%} vs "
            "tracing off)"
        )
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional drop below baseline (default 0.25)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="rounds per engine measurement, best-of-N (default 5)")
    parser.add_argument("--figures", default="fig3a,fig9a",
                        help="comma-separated panels for the figure gate "
                        "(default fig3a,fig9a — the single-flow and multi-flow "
                        "tentpole panels; 'none' skips it)")
    parser.add_argument("--figure-repeat", type=int, default=2,
                        help="rounds per figure measurement, best-of-N (default 2)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this machine's numbers")
    args = parser.parse_args()

    current = bench.engine_metrics(repeat=args.repeat)
    print(
        f"schedule_run: {current['schedule_run_events_per_sec']:,.0f} ev/s "
        f"(normalized {current['schedule_run_normalized']:.4f})"
    )
    print(
        f"cancel_churn: {current['cancel_churn_events_per_sec']:,.0f} ev/s "
        f"(normalized {current['cancel_churn_normalized']:.4f})"
    )

    names = []
    if args.figures and args.figures != "none":
        names = [n.strip() for n in args.figures.split(",") if n.strip()]
    figure_rows = _figure_metrics(
        names, args.figure_repeat, current["calibration_ops_per_sec"]
    )

    if args.update:
        doc = {
            "comment": "calibration-normalized perf floors for CI; regenerate "
            "with tools/check_bench_regression.py --update (engine floors are "
            "throughput minima; figure entries are normalized-cost ceilings)",
            "schedule_run_normalized": current["schedule_run_normalized"],
            "cancel_churn_normalized": current["cancel_churn_normalized"],
            "figures": {
                name: {"max_normalized_cost": row["normalized_cost"]}
                for name, row in figure_rows.items()
            },
        }
        with open(args.baseline, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    baseline = bench.load_baseline(args.baseline)
    failures = bench.compare_to_baseline(current, baseline, args.tolerance)
    gated = {
        name: floor
        for name, floor in baseline.get("figures", {}).items()
        if not names or name in names
    }
    failures += bench.compare_figures_to_baseline(figure_rows, gated, args.tolerance)
    for name, row in figure_rows.items():
        if row["trace_overhead"] > MAX_TRACE_OVERHEAD:
            failures.append(
                f"{name}: tracing costs {row['trace_overhead']:.1%} over the "
                f"tracing-off run (ceiling {MAX_TRACE_OVERHEAD:.0%})"
            )
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print(f"perf gate passed (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
