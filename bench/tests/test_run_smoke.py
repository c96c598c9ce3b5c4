import shutil
import textwrap

from bench import ROOT
from bench.metrics import END_TO_END, PER_LAYER
from bench.workloads import WORKLOADS

from .conftest import records, result_lines, run_bench


def test_benchmark_json_lists_what_runs_print(benchmark_json):
    assert {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in benchmark_json["per_layer"]} == PER_LAYER
    assert [w["name"] for w in benchmark_json["workloads"]] == list(WORKLOADS)


def _assert_prints(proc, runs, expected):
    assert proc.returncode == 0, proc.stderr
    lines = result_lines(proc.stdout)
    assert len(lines) == len(runs) == len(WORKLOADS)
    for line, run in zip(lines, runs):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
        assert run["failed_frac"] == 0
        for name in expected:
            assert name in proc.stdout
    assert proc.stdout.strip().splitlines()[-1].startswith("{")


def test_run_prints_every_end_to_end_metric(smoke_run):
    proc, runs, _ = smoke_run
    _assert_prints(proc, runs, END_TO_END)
    for run in runs:
        for metric in run["metrics"].values():
            assert metric["value"] > 0


def test_layers_prints_every_per_layer_metric(layers_run):
    proc, runs, _ = layers_run
    _assert_prints(proc, runs, PER_LAYER)


def test_audit_failure_in_the_child_fails_the_run(tmp_path):
    # The child imports sitecustomize from PYTHONPATH at start-up.
    (tmp_path / "sitecustomize.py").write_text(textwrap.dedent("""
        try:
            from repro.core.audit import AuditReport
        except ImportError:  # the parent process has no simulator on its path
            pass
        else:
            AuditReport.ok = property(lambda self: False)
    """))
    out = tmp_path / "runs.jsonl"
    proc = run_bench(
        "run", "--workload", "bulk", "--limit", 1, "--rounds", 1,
        "--out", out, "--out-dir", tmp_path, env={"PYTHONPATH": str(tmp_path)},
    )
    assert proc.returncode != 0
    [run] = records(out)
    assert run["failed_frac"] > 0
    assert not result_lines(proc.stdout)[-1]["correct"]


def test_run_without_simulator_sources_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("run", "--workload", "bulk", "--seed", 1, "--seconds", 1,
                     "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not result_lines(proc.stdout)
