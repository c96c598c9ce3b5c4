"""``python -m bench compare PARENT CHANGE``: judge a change against its parent.

Each file holds ``bench run --out`` records, one JSON object a line, from runs
of one commit. Runs pair up in file order per workload (run i of the parent
with run i of the change), so make both sets with the same seeds, alternating
which commit runs first. Each (workload, end-to-end metric) is reported as:

* ``better``: the change wins at least 9/10 of at least ten pairs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile range;
* ``unresolved``: the parent's own interquartile range, as a share of its
  median, is wider than the metric's bound in ``BENCHMARK.json``, and not
  every change run reads better than every parent run;
* ``worse``: the change's median is worse than the parent's by more than the
  bound;
* ``unchanged``: otherwise.

``failed_frac`` has an absolute bound of 0: any rise is ``worse``. The exit
code is 1 when anything is worse.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

from .metrics import FAILED_FRAC

MIN_PAIRS_FOR_GAIN = 10
GAIN_WIN_SHARE = 0.9


def load_runs(path: str) -> Dict[str, List[dict]]:
    """Untraced run records of ``path``, grouped by workload in file order."""
    runs: Dict[str, List[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: List[float], change: List[float], bound: float, lower_is_better: bool = True) -> dict:
    """Compare paired samples of one lower- (or higher-) is-better metric."""
    sign = 1 if lower_is_better else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    base, now = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    worsening = sign * (now - base) / base
    if (
        len(pairs) >= MIN_PAIRS_FOR_GAIN
        and wins >= GAIN_WIN_SHARE * len(pairs)
        and sign * (base - now) > iqr
    ):
        outcome = "better"
    elif iqr / base > bound:
        always_better = all(sign * (p - c) > 0 for p in parent for c in change)
        outcome = "unchanged" if always_better else "unresolved"
    elif worsening > bound:
        outcome = "worse"
    else:
        outcome = "unchanged"
    return {
        "parent": base, "q1": q1, "q3": q3, "change": now, "delta": -worsening,
        "wins": wins, "pairs": len(pairs), "verdict": outcome,
    }


def compare(parent_path: str, change_path: str, benchmark_path: str) -> int:
    benchmark = json.loads(Path(benchmark_path).read_text())
    parent_runs, change_runs = load_runs(parent_path), load_runs(change_path)
    rows = []
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent, change = parent_runs.get(workload), change_runs.get(workload)
        if not parent or not change:
            rows.append((workload, "-", None, "missing on one side"))
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = verdict(
                [r["metrics"][name]["value"] for r in parent],
                [r["metrics"][name]["value"] for r in change],
                metric["bound"], metric["better"] == "lower",
            )
            rows.append((workload, name, row, f"{metric['bound']:.0%}"))
        failed = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in (parent, change)]
        rows.append((workload, FAILED_FRAC, {
            "parent": failed[0], "q1": failed[0], "q3": failed[0], "change": failed[1],
            "delta": failed[0] - failed[1], "wins": 0, "pairs": min(len(parent), len(change)),
            "verdict": "worse" if failed[1] > failed[0] else "unchanged",
        }, "0 abs"))

    print(f"{'workload':<12}{'metric':<13}{'parent median [q1, q3]':>34}"
          f"{'change':>12}{'better by':>11}{'wins':>8}{'bound':>7}  verdict")
    for workload, name, row, bound in rows:
        if row is None:
            print(f"{workload:<12}{name:<13}{bound}")
            continue
        spread = f"{row['parent']:.5g} [{row['q1']:.5g}, {row['q3']:.5g}]"
        print(f"{workload:<12}{name:<13}{spread:>34}{row['change']:>12.5g}"
              f"{row['delta']:>+11.1%}{row['wins']:>5}/{row['pairs']:<2}{bound:>7}  {row['verdict']}")
    return 1 if any(row is not None and row["verdict"] == "worse" for _, _, row, _ in rows) else 0
