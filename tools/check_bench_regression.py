#!/usr/bin/env python
"""CI perf gate: ``python -m bench`` workloads and layers, and engine floors.

Every measurement is checked against ``benchmarks/perf_gate.json``. All
times are seconds at the reference host speed (``bench.probe``), so the
committed values transfer across machines. Memory ceilings are MB of peak
RSS. The gate fails on:

* **Failures** — any ``python -m bench`` record with ``failed > 0``.
* **Workload ceilings** — a workload's median ``wall_s`` from
  ``python -m bench run`` above its committed value by more than the
  ``wall_s`` bound in ``BENCHMARK.json``.
* **Layer ceilings** — a layer's reference seconds, its profiled share from
  ``python -m bench layers`` times the workload's ``wall_s``, above its
  committed value by the same bound. Failures name the workload and layer.
* **Memory ceilings** — a workload's median ``peak_rss_mb`` from
  ``python -m bench run`` above its committed value by more than the
  ``peak_rss_mb`` bound in ``BENCHMARK.json``.
* **Trace overhead** — the median over timed rounds of ``bulk_traced``
  ``wall_s`` over ``bulk``'s, above ``MAX_TRACE_OVERHEAD``. Rounds rotate
  through the workloads, so each workload's i-th round ran right after the
  other's and a pair shares the host's state; a ratio of two medians would
  mix rounds minutes apart.
* **Engine floors** — the best reference seconds of the three engine
  micro-benchmarks (``_schedule_and_run``, ``_cancel_churn``, ``_post_run``)
  above their committed values by more than ``ENGINE_TOLERANCE``.

``--update`` re-baselines through :func:`merge_baseline`: a committed value
stays wherever the new measurement is within that metric's bound of it, so
one slow or lucky run can neither loosen a ceiling nor tighten a floor past
what a normal run meets.

Usage::

    python tools/check_bench_regression.py            # about 3 minutes
    python tools/check_bench_regression.py --update   # re-baseline
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench.probe import SpeedProbe  # noqa: E402

from repro.sim.engine import Engine  # noqa: E402

PERF_GATE = ROOT / "benchmarks" / "perf_gate.json"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Allowed fractional wall-time increase of ``bulk_traced`` over ``bulk``:
#: the same configs with per-stage latency tracing on. Kept in the tool so
#: ``--update`` can never weaken it. On a 2-vCPU VM eight gate runs measured
#: 0.086 to 0.146 (median of per-round-pair ratios); none came within 0.06.
MAX_TRACE_OVERHEAD = 0.21
#: Allowed fractional slowdown of an engine micro-benchmark.
ENGINE_TOLERANCE = 0.25
#: Timed runs per engine micro-benchmark in each of three windows: before,
#: between and after the two bench runs. The best of all of them counts, so
#: one slow stretch of a shared host cannot decide the verdict.
ENGINE_REPEAT = 10
#: Events each engine micro-benchmark fires.
NUM_EVENTS = 50_000
#: Layers too small, and their shares too noisy, to gate.
UNGATED_LAYERS = frozenset({"workloads", "core.runner", "unattributed"})


def _schedule_and_run() -> int:
    """The plain schedule/fire loop with ``NUM_EVENTS`` pending at once;
    returns the events fired."""
    engine = Engine()
    fired = 0

    def tick() -> None:
        nonlocal fired
        fired += 1

    for i in range(NUM_EVENTS):
        engine.schedule(i % 977, tick)
    engine.run()
    return fired


def _cancel_churn() -> int:
    """Re-armed timers: every tick re-schedules the timer that fired it (so
    ``old`` has already left the queue) and arms and at once cancels a
    far-future one: one cancel per tick, each an arm-then-cancel (the eager
    delayed-ACK / pacing re-arm pattern). Returns the ticks fired."""
    engine = Engine()
    fired = 0
    timer = None

    def tick() -> None:
        nonlocal fired, timer
        fired += 1
        if fired < NUM_EVENTS:
            old = timer
            timer = engine.schedule(100, tick)
            engine.schedule(50, noop)
            if old is not None:
                old.cancel()
            # Arm-and-cancel immediately: pop-on-cancel drops the event and,
            # as the heap's last leaf, its instant too.
            engine.schedule(1_000_000, noop).cancel()

    def noop() -> None:
        pass

    timer = engine.schedule(0, tick)
    engine.run()
    return fired


def _post_run() -> int:
    """Handle-free completions (``Engine.post``, the CPU-job finish and NIC
    drain path): half of ``NUM_EVENTS`` posted from the loop, each of which
    posts one more from its callback. Returns the events fired."""
    engine = Engine()
    post = engine.post
    fired = 0

    def chained() -> None:
        nonlocal fired
        fired += 1

    def tick() -> None:
        nonlocal fired
        fired += 1
        post(100, chained)

    for i in range(NUM_EVENTS // 2):
        post(i % 977, tick)
    engine.run()
    return fired


ENGINE_WORKLOADS = {
    "schedule_run": _schedule_and_run,
    "cancel_churn": _cancel_churn,
    "post_run": _post_run,
}


def bench_records(command: str) -> dict:
    """Run ``python -m bench COMMAND`` on every workload; its records by workload."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "records.jsonl"
        subprocess.run(
            [sys.executable, "-m", "bench", command, "--out", str(out),
             "--out-dir", tmp],
            cwd=ROOT,
        )
        lines = out.read_text().splitlines() if out.exists() else []
    return {record["workload"]: record for record in map(json.loads, lines)}


def engine_seconds() -> dict:
    """Best reference seconds of each engine micro-benchmark."""
    probe = SpeedProbe()
    spans = {name: [] for name in ENGINE_WORKLOADS}
    probe.start()
    try:
        for _ in range(ENGINE_REPEAT):
            for name, workload in ENGINE_WORKLOADS.items():
                start = time.perf_counter()
                workload()
                spans[name].append((start, time.perf_counter()))
    finally:
        probe.stop()
    return {
        name: min(probe.at_reference_speed(start, end) for start, end in runs)
        for name, runs in spans.items()
    }


def measure() -> tuple:
    """Everything the gate checks: (measured values, failure messages)."""
    windows = [engine_seconds()]
    runs = bench_records("run")
    windows.append(engine_seconds())
    layers = bench_records("layers")
    windows.append(engine_seconds())
    engine_s = {name: min(window[name] for window in windows) for name in ENGINE_WORKLOADS}
    failures = [
        f"{name}: {record['failed']} of {record['attempted']} experiments failed "
        f"in `bench {command}`"
        for command, records in (("run", runs), ("layers", layers))
        for name, record in records.items()
        if record["failed"]
    ]
    wall_s = {name: record["metrics"]["wall_s"]["value"] for name, record in runs.items()}
    peak_rss_mb = {
        name: record["metrics"]["peak_rss_mb"]["value"] for name, record in runs.items()
    }
    layer_s = {
        name: {
            metric[: -len(".share")]: entry["value"] * wall_s[name]
            for metric, entry in record["metrics"].items()
            if metric.endswith(".share") and metric[: -len(".share")] not in UNGATED_LAYERS
        }
        for name, record in layers.items()
        if name in wall_s
    }
    measured = {
        "engine_s": engine_s, "wall_s": wall_s, "layer_s": layer_s,
        "peak_rss_mb": peak_rss_mb, "trace_overhead": trace_overhead(runs),
    }
    return measured, failures


def trace_overhead(runs: dict):
    """Median of ``bulk_traced`` / ``bulk`` - 1 over pairs of timed rounds,
    each workload's i-th round with the other's; None unless both ran."""
    if "bulk" not in runs or "bulk_traced" not in runs:
        return None
    pairs = zip(runs["bulk"]["metrics"]["wall_s"]["samples"],
                runs["bulk_traced"]["metrics"]["wall_s"]["samples"])
    return statistics.median(traced / bulk - 1 for bulk, traced in pairs)


def _over(label: str, now, committed: float, headroom: float, unit: str = "s") -> list:
    if now is None:
        return [f"{label}: gated but not measured"]
    if now > committed * (1 + headroom):
        return [
            f"{label}: {now:.4f} {unit} is {now / committed - 1:.1%} above the "
            f"committed {committed:.4f} {unit} (ceiling +{headroom:.0%})"
        ]
    return []


def check(measured: dict, committed: dict, bounds: dict) -> list:
    """Failure messages; ``bounds`` maps ``BENCHMARK.json`` end-to-end metric
    names to their fractional bounds."""
    wall_bound = bounds["wall_s"]
    failures = []
    for name, ceiling in committed["engine_s"].items():
        failures += _over(f"engine {name}", measured["engine_s"].get(name),
                          ceiling, ENGINE_TOLERANCE)
    for name, ceiling in committed["wall_s"].items():
        failures += _over(f"{name} wall_s", measured["wall_s"].get(name), ceiling, wall_bound)
    for name, layers in committed["layer_s"].items():
        now = measured["layer_s"].get(name, {})
        for layer, ceiling in layers.items():
            failures += _over(f"{name} layer {layer}", now.get(layer), ceiling, wall_bound)
    for name, ceiling in committed.get("peak_rss_mb", {}).items():
        failures += _over(f"{name} peak_rss_mb", measured["peak_rss_mb"].get(name),
                          ceiling, bounds["peak_rss_mb"], unit="MB")
    overhead = measured.get("trace_overhead")
    if overhead is not None and overhead > MAX_TRACE_OVERHEAD:
        failures.append(
            f"bulk_traced: tracing costs {overhead:.1%} over bulk "
            f"(ceiling {MAX_TRACE_OVERHEAD:.0%})"
        )
    return failures


def _merge(committed, measured, bound: float):
    if isinstance(measured, dict):
        committed = committed if isinstance(committed, dict) else {}
        return {
            key: _merge(committed.get(key), value, bound)
            for key, value in measured.items()
        }
    if committed is not None and abs(measured - committed) <= committed * bound:
        return committed
    return measured


def merge_baseline(committed: dict, measured: dict, bounds: dict) -> dict:
    """The values ``--update`` commits, from the committed ones and one run.

    A committed value stays wherever the run measured within that metric's
    bound of it, up or down: ``bounds["wall_s"]`` for workload and layer
    seconds, ``bounds["peak_rss_mb"]`` for memory, ``ENGINE_TOLERANCE`` for
    the engine floors. Elsewhere the run's value is taken. Keys the run
    measured for the first time are added; committed keys it no longer
    measures are dropped. The trace overhead is not committed: its ceiling
    is ``MAX_TRACE_OVERHEAD``.
    """
    section_bounds = {
        "engine_s": ENGINE_TOLERANCE,
        "wall_s": bounds["wall_s"],
        "layer_s": bounds["wall_s"],
        "peak_rss_mb": bounds["peak_rss_mb"],
    }
    return {
        section: _merge(committed.get(section), values, section_bounds[section])
        for section, values in measured.items()
        if section in section_bounds
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="re-baseline benchmarks/perf_gate.json: take this "
                        "run's values where they moved past their bound")
    args = parser.parse_args()

    measured, failures = measure()
    for name, seconds in measured["engine_s"].items():
        print(f"engine {name}: {seconds:.4f} s")
    for name, seconds in measured["wall_s"].items():
        layers = ", ".join(f"{layer} {s:.3f}" for layer, s in measured["layer_s"].get(name, {}).items())
        print(f"{name}: wall_s {seconds:.3f} s, peak_rss_mb "
              f"{measured['peak_rss_mb'].get(name, 0):.2f} ({layers})")
    if measured["trace_overhead"] is not None:
        print(f"trace overhead: {measured['trace_overhead']:.3f}")

    bounds = {b["name"]: b["bound"] for b in json.loads(BENCHMARK.read_text())["end_to_end"]}
    if not args.update:
        failures += check(measured, json.loads(PERF_GATE.read_text()), bounds)
    elif not failures:  # a run with failed experiments never becomes the baseline
        committed = json.loads(PERF_GATE.read_text()) if PERF_GATE.exists() else {}
        doc = {"comment": "reference seconds; regenerate with "
                          "tools/check_bench_regression.py --update",
               **merge_baseline(committed, measured, bounds)}
        PERF_GATE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"perf gate updated: {PERF_GATE}")
        return 0
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
