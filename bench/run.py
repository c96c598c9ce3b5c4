"""``python -m bench run`` and ``layers``: spawn rounds, check them, report.

The load is a closed loop with one client: a fresh interpreter runs each
(workload, round), one at a time, and rounds rotate through the workloads
(w1 r1, w2 r1, ..., w1 r2, ...) so machine drift spreads evenly over them.
Round 0 of every workload is the untimed, strictly audited check round. With
tracing off, timed rounds follow until at least ``--rounds`` have run and
their experiments took ``--seconds`` in total; each end-to-end metric is the
median over the timed rounds (``setup_s``: over every unprofiled child,
check round included). With tracing on, one timed round and one
profiled round follow, and the per-layer metrics come from those two.

An experiment fails if it raises, if its strict audit is not ok, if its trace
identity check fails, or if its result digest differs from the check
round's. Per-experiment spans are kept in memory and written to
``OUT_DIR/spans.jsonl`` at the end; profiled rounds write
``OUT_DIR/<workload>.prof``.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from . import ROOT, SRC
from .layers import LAYER_NAMES, UNATTRIBUTED
from .metrics import END_TO_END, FAILED_FRAC, PER_LAYER
from .workloads import WORKLOADS

#: A round that takes longer than this is stuck, not slow.
CHILD_TIMEOUT_S = 600


class ChildFailed(RuntimeError):
    """A round's interpreter ended without reporting a payload."""


def spawn(job: dict) -> dict:
    """Run one round in a fresh interpreter and return its payload."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(SRC), str(ROOT), env.get("PYTHONPATH")) if path
    )
    label = f"{job['workload']} {job['mode']} round"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bench.child", json.dumps(job)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{label} timed out after {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{label} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def wall(payload: dict) -> float:
    """A round's host seconds in run_many, unconverted."""
    return sum(e["end"] - e["start"] for e in payload["experiments"])


class WorkloadRun:
    """Every round of one workload, and what they add up to."""

    def __init__(self, name: str, args, out_dir: Path, clock0: float, spans: List[dict]):
        self.name = name
        self.args = args
        self.out_dir = out_dir
        self.clock0 = clock0
        self.spans = spans
        #: config key -> result digest; the check round's, else the first seen
        self.reference: Dict[str, str] = {}
        self.timed: List[dict] = []
        self.profiled: Optional[dict] = None
        #: set-up seconds of every unprofiled child, the check round's too
        self.setups: List[float] = []
        self.attempted = 0
        self.failed = 0

    def round(self, mode: str) -> dict:
        job = {
            "workload": self.name, "seed": self.args.seed,
            "limit": self.args.limit, "mode": mode,
        }
        if mode == "profiled":
            job["profile"] = str(self.out_dir / f"{self.name}.prof")
        start = time.perf_counter()
        payload = spawn(job)
        end = time.perf_counter()
        label = f"timed round {len(self.timed) + 1}" if mode == "timed" else f"{mode} round"
        if mode != "profiled":
            self.setups.append(payload["setup_reference_s"])
        self._check(payload, label)
        self._trace(payload, label, start, end)
        print(f"bench: {self.name} {label}: {wall(payload):.3f} s", file=sys.stderr)
        return payload

    def _check(self, payload: dict, label: str) -> None:
        for exp in payload["experiments"]:
            self.attempted += 1
            error = exp["error"]
            if error is None and self.reference.setdefault(exp["key"], exp["digest"]) != exp["digest"]:
                error = "result digest differs from the check round's"
            if error is not None:
                self.failed += 1
                print(f"bench: {self.name} {label}: {exp['key'][:16]}: {error}", file=sys.stderr)

    def _trace(self, payload: dict, label: str, start: float, end: float) -> None:
        """Spans: the round, then its set-up and experiments as its children.
        Child clocks are the same monotonic clock as the parent's."""
        parent = len(self.spans)
        t0 = self.clock0
        self.spans.append({
            "id": parent, "parent": None, "workload": self.name, "name": label,
            "start": start - t0, "end": end - t0,
        })
        children = [("setup", payload["setup_start"], payload["setup_end"])]
        children += [(e["key"], e["start"], e["end"]) for e in payload["experiments"]]
        for name, child_start, child_end in children:
            self.spans.append({
                "id": len(self.spans), "parent": parent, "workload": self.name,
                "name": name, "start": child_start - t0, "end": child_end - t0,
            })

    def wants_timed_round(self) -> bool:
        return (
            len(self.timed) < self.args.rounds
            or sum(wall(p) for p in self.timed) < self.args.seconds
        )

    def digest(self) -> str:
        joined = "".join(self.reference[key] for key in sorted(self.reference))
        return hashlib.sha256(joined.encode()).hexdigest()[:16]

    def samples(self) -> Dict[str, List[float]]:
        """Metric name -> one sample per timed round, setup_s one per child
        (per-layer: one sample)."""
        if self.profiled is not None:
            return {name: [value] for name, value in self._per_layer().items()}
        samples: Dict[str, List[float]] = {
            "wall_s": [], "max_exp_s": [], "setup_s": self.setups, "peak_rss_mb": [],
        }
        for payload in self.timed:
            times = [e["reference_s"] for e in payload["experiments"]]
            samples["wall_s"].append(sum(times))
            samples["max_exp_s"].append(max(times))
            samples["peak_rss_mb"].append(payload["peak_rss_mb"])
        return samples

    def _per_layer(self) -> Dict[str, float]:
        plain, profiled = self.timed[0], self.profiled
        rolled = profiled["layers"]
        total = rolled["total_s"]
        values: Dict[str, float] = {}
        for layer in LAYER_NAMES:
            values[f"{layer}.self_s"] = rolled["self_s"][layer]
            values[f"{layer}.share"] = rolled["self_s"][layer] / total
            values[f"{layer}.calls_in"] = rolled["calls_in"][layer]
        values[f"{UNATTRIBUTED}.share"] = rolled["self_s"][UNATTRIBUTED] / total
        fired, cancelled = plain["events_fired"], plain["events_cancelled"]
        values["sim.events_fired"] = fired
        values["sim.events_cancelled"] = cancelled
        values["sim.useful_frac"] = fired / (fired + cancelled) if fired + cancelled else 1.0
        values["sim.ns_per_event"] = wall(plain) / fired * 1e9 if fired else 0.0
        values.update(plain["counters"])
        values["trace_overhead"] = wall(profiled) / wall(plain) - 1
        return values

    def report(self) -> dict:
        """Print the workload's table; return its record."""
        units = PER_LAYER if self.profiled is not None else END_TO_END
        samples = self.samples()
        metrics = {
            name: {"value": statistics.median(samples[name]), "unit": unit,
                   "samples": samples[name]}
            for name, unit in units.items()
        }
        failed_frac = self.failed / self.attempted
        rounds = "1 timed + 1 profiled" if self.profiled is not None else f"{len(self.timed)} timed"
        print(
            f"== {self.name} · seed {self.args.seed} · "
            f"{len(self.reference)} configs · {rounds} round(s) after 1 check round · "
            f"digest {self.digest()}"
        )
        print(f"  {'metric':<28}{'median':>16}  {'unit':<9}n")
        for name, metric in metrics.items():
            print(f"  {name:<28}{metric['value']:>16.6g}  {metric['unit']:<9}{len(metric['samples'])}")
        print(f"  {FAILED_FRAC:<28}{failed_frac:>16.6g}  {'fraction':<9}{self.attempted} experiments")
        return {
            "workload": self.name, "seed": self.args.seed,
            "trace": int(self.profiled is not None), "digest": self.digest(),
            "correct": self.failed == 0, "attempted": self.attempted,
            "failed": self.failed, FAILED_FRAC: failed_frac, "metrics": metrics,
        }


def run(args) -> int:
    unknown = sorted(set(args.workload or ()) - set(WORKLOADS))
    if unknown:
        print(f"bench: unknown workload(s) {', '.join(unknown)}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spans: List[dict] = []
    clock0 = time.perf_counter()
    runs = [
        WorkloadRun(name, args, out_dir, clock0, spans)
        for name in (args.workload or WORKLOADS)
    ]
    try:
        for workload in runs:
            workload.round("check")
        if args.trace:
            for workload in runs:
                workload.timed.append(workload.round("timed"))
            for workload in runs:
                workload.profiled = workload.round("profiled")
        else:
            while active := [w for w in runs if w.wants_timed_round()]:
                for workload in active:
                    workload.timed.append(workload.round("timed"))
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    with open(out_dir / "spans.jsonl", "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    records = [workload.report() for workload in runs]
    if args.out:
        with open(args.out, "a") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
    for record in records:
        # The result line: the last line of stdout is the last workload's.
        print(json.dumps({
            "correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in record["metrics"].items()
            },
        }))
    return 0 if all(record["correct"] for record in records) else 1
