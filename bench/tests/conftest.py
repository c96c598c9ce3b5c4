"""Shared fixtures: the simulator on the path, and the benchmark's smoke runs.

Run with ``python -m pytest bench/tests -q`` from the checkout root.
"""

import json
import os
import subprocess
import sys

import pytest

from bench import ROOT, SRC

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def run_bench(*args, env=None, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=900,
        env=dict(os.environ, **(env or {})),
    )


def result_lines(stdout: str) -> list:
    """The JSON result lines a run printed, one per workload."""
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def records(path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture(scope="session")
def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(tmp_path_factory, *args):
    tmp = tmp_path_factory.mktemp("bench")
    proc = run_bench(*args, "--limit", 1, "--rounds", 1,
                     "--out", tmp / "runs.jsonl", "--out-dir", tmp)
    return proc, records(tmp / "runs.jsonl"), tmp


@pytest.fixture(scope="session")
def smoke_run(tmp_path_factory):
    """``run --limit 1``: one config per workload, one timed round."""
    return _smoke(tmp_path_factory, "run")


@pytest.fixture(scope="session")
def layers_run(tmp_path_factory):
    """``layers --limit 1``: the per-layer run on one config per workload."""
    return _smoke(tmp_path_factory, "layers")
