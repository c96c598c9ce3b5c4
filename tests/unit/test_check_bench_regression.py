"""Unit tests for the CI perf gate (``tools/check_bench_regression.py``).

The gate itself runs ``python -m bench`` on every workload, which is far too
slow for unit tests — so these tests stub the bench records and the engine
timings with synthetic numbers and exercise the decision logic: a healthy
run passes, each ceiling and floor trips individually and names what
tripped, ``--update`` keeps each committed value a run stays within its
bound of and cannot weaken the hard-coded trace-overhead ceiling, and layer
ceilings follow shares, not raw profiled seconds. Memory ceilings gate ``peak_rss_mb``.
The three engine micro-benchmarks the gate times must fire every event.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL_PATH = Path(__file__).resolve().parents[2] / "tools" / "check_bench_regression.py"
_spec = importlib.util.spec_from_file_location("check_bench_regression", _TOOL_PATH)
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


ENGINE_S = {"schedule_run": 0.03, "cancel_churn": 0.12, "post_run": 0.02}
WALL_S = {"bulk": 1.5, "bulk_traced": 1.7, "lossy": 3.0, "rpc": 3.0, "all_to_all": 3.1}
PEAK_RSS_MB = {"bulk": 24.0, "bulk_traced": 24.5, "lossy": 24.2, "rpc": 24.1, "all_to_all": 27.0}
SHARES = {
    "sim": 0.10, "hardware.link": 0.04, "hardware.nic": 0.15, "hardware.cache": 0.05,
    "hardware.cpu": 0.11, "kernel.napi": 0.14, "kernel.tcp": 0.31,
    "kernel.socket": 0.06, "core.metrics": 0.03, "workloads": 0.006,
    "core.runner": 0.004,
}
GATED = [layer for layer in SHARES if layer not in tool.UNGATED_LAYERS]
COMMITTED = {
    "engine_s": ENGINE_S,
    "wall_s": WALL_S,
    "layer_s": {
        name: {layer: SHARES[layer] * wall for layer in GATED}
        for name, wall in WALL_S.items()
    },
    "peak_rss_mb": PEAK_RSS_MB,
}
BOUNDS = {b["name"]: b["bound"] for b in json.loads(tool.BENCHMARK.read_text())["end_to_end"]}


def _records(wall_s, shares, self_s_scale, failed, peak_rss_mb):
    """Stub ``bench_records``: ``run`` and ``layers`` records by workload."""
    runs = {
        name: {"workload": name, "attempted": 10, "failed": failed,
               "metrics": {"wall_s": {"value": wall, "unit": "s", "samples": [wall]},
                           "peak_rss_mb": {"value": peak_rss_mb[name], "unit": "MB"}}}
        for name, wall in wall_s.items()
    }
    layers = {}
    for name in wall_s:
        metrics = {"unattributed.share": {"value": 0.0, "unit": "fraction"}}
        for layer, share in shares.items():
            metrics[f"{layer}.share"] = {"value": share, "unit": "fraction"}
            # Profiled rounds run without the speed probe: raw host seconds.
            metrics[f"{layer}.self_s"] = {"value": share * 10.0 * self_s_scale, "unit": "s"}
        layers[name] = {"workload": name, "attempted": 10, "failed": 0, "metrics": metrics}
    return {"run": runs, "layers": layers}


def _run_gate(tmp_path, monkeypatch, capsys, *, engine=ENGINE_S, wall_s=WALL_S,
              shares=SHARES, committed=COMMITTED, update=False, self_s_scale=1.0,
              failed=0, peak_rss_mb=PEAK_RSS_MB):
    """Run ``main()`` with stubbed measurements; return (exit code, stderr)."""
    perf_gate = tmp_path / "perf_gate.json"
    if committed is not None:
        perf_gate.write_text(json.dumps(committed))
    records = _records(wall_s, shares, self_s_scale, failed, peak_rss_mb)
    monkeypatch.setattr(tool, "PERF_GATE", perf_gate)
    monkeypatch.setattr(tool, "bench_records", lambda command: records[command])
    monkeypatch.setattr(tool, "engine_seconds", lambda: dict(engine))
    argv = ["check_bench_regression.py"] + (["--update"] if update else [])
    monkeypatch.setattr(tool.sys, "argv", argv)
    code = tool.main()
    return code, capsys.readouterr().err


def test_healthy_snapshot_passes(tmp_path, monkeypatch, capsys):
    code, err = _run_gate(tmp_path, monkeypatch, capsys)
    assert code == 0
    assert "REGRESSION" not in err


def test_engine_throughput_floor_trips(tmp_path, monkeypatch, capsys):
    engine = dict(ENGINE_S, schedule_run=ENGINE_S["schedule_run"] * 2)  # half the speed
    code, err = _run_gate(tmp_path, monkeypatch, capsys, engine=engine)
    assert code == 1
    assert "engine schedule_run" in err
    assert "cancel_churn" not in err


@pytest.mark.parametrize("key", ["wall_s", "kernel.napi"])
def test_each_cost_ceiling_trips(tmp_path, monkeypatch, capsys, key):
    if key == "wall_s":
        # rpc only, so the trace-overhead ceiling stays quiet.
        code, err = _run_gate(tmp_path, monkeypatch, capsys,
                              wall_s=dict(WALL_S, rpc=WALL_S["rpc"] * 2))
        assert "rpc wall_s" in err
    else:
        # The layer's share doubles at the same wall time: only layer
        # ceilings can see it, and every failure names the layer.
        code, err = _run_gate(tmp_path, monkeypatch, capsys,
                              shares=dict(SHARES, **{key: SHARES[key] * 2}))
        failures = [line for line in err.splitlines() if line.startswith("REGRESSION")]
        assert len(failures) == len(WALL_S)
        assert all(f"layer {key}:" in line for line in failures)
    assert code == 1
    assert key in err


def test_cost_within_tolerance_headroom_passes(tmp_path, monkeypatch, capsys):
    # 15% above every committed value: inside BENCHMARK.json's 20% wall_s
    # bound and the 25% engine tolerance.
    code, err = _run_gate(
        tmp_path, monkeypatch, capsys,
        engine={name: s * 1.15 for name, s in ENGINE_S.items()},
        wall_s={name: s * 1.15 for name, s in WALL_S.items()},
    )
    assert code == 0, err


def test_peak_rss_ceiling_trips(tmp_path, monkeypatch, capsys):
    # 9% more memory on every workload is inside the 10% peak_rss_mb bound.
    code, err = _run_gate(tmp_path, monkeypatch, capsys,
                          peak_rss_mb={name: mb * 1.09 for name, mb in PEAK_RSS_MB.items()})
    assert code == 0, err
    # 15% more on all_to_all alone trips its ceiling, and only that one.
    grown = dict(PEAK_RSS_MB, all_to_all=PEAK_RSS_MB["all_to_all"] * 1.15)
    code, err = _run_gate(tmp_path, monkeypatch, capsys, peak_rss_mb=grown)
    failures = [line for line in err.splitlines() if line.startswith("REGRESSION")]
    assert code == 1
    assert len(failures) == 1
    assert "all_to_all peak_rss_mb" in failures[0] and "MB" in failures[0]
    assert "wall_s" not in err


def test_trace_overhead_ceiling_trips(tmp_path, monkeypatch, capsys):
    # One point above the ceiling trips it; one point below does not.
    for excess, trips in ((0.01, True), (-0.01, False)):
        traced = WALL_S["bulk"] * (1 + tool.MAX_TRACE_OVERHEAD + excess)
        wall_s = dict(WALL_S, bulk_traced=traced)
        committed = dict(COMMITTED, wall_s=wall_s)  # bulk_traced within its own ceiling
        code, err = _run_gate(tmp_path, monkeypatch, capsys, wall_s=wall_s,
                              committed=committed)
        assert code == (1 if trips else 0), err
        assert ("tracing" in err) == trips
        assert "wall_s" not in err


def test_trace_overhead_pairs_rounds_run_back_to_back():
    # Rounds run bulk 1, traced 1, bulk 2, traced 2, ... A 1.5x slow stretch
    # from traced round 2 on moves the ratio of the medians (1.65 / 1.0) but
    # only one of three per-pair ratios.
    runs = {
        "bulk": {"metrics": {"wall_s": {"samples": [1.0, 1.0, 1.5]}}},
        "bulk_traced": {"metrics": {"wall_s": {"samples": [1.1, 1.65, 1.65]}}},
    }
    assert tool.trace_overhead(runs) == pytest.approx(0.1)
    assert tool.trace_overhead({"bulk": runs["bulk"]}) is None


def test_missing_gated_figure_fails(tmp_path, monkeypatch, capsys):
    # rpc is gated by the committed values, but the bench records (stubbed
    # here) never produced it.
    wall_s = {name: s for name, s in WALL_S.items() if name != "rpc"}
    code, err = _run_gate(tmp_path, monkeypatch, capsys, wall_s=wall_s)
    assert code == 1
    assert "rpc wall_s: gated but not measured" in err
    assert "rpc layer kernel.napi: gated but not measured" in err


def test_failed_experiment_fails(tmp_path, monkeypatch, capsys):
    code, err = _run_gate(tmp_path, monkeypatch, capsys, failed=1)
    assert code == 1
    assert "bulk: 1 of 10 experiments failed in `bench run`" in err

    # A broken run never becomes the committed baseline.
    code, _ = _run_gate(tmp_path, monkeypatch, capsys, update=True, failed=1)
    assert code == 1
    assert json.loads((tmp_path / "perf_gate.json").read_text()) == COMMITTED


def test_update_rewrites_baseline_with_hard_floor(tmp_path, monkeypatch, capsys):
    code, _ = _run_gate(tmp_path, monkeypatch, capsys, committed=None, update=True)
    assert code == 0
    doc = json.loads((tmp_path / "perf_gate.json").read_text())
    assert doc["engine_s"] == ENGINE_S
    assert doc["wall_s"] == WALL_S
    assert doc["layer_s"] == COMMITTED["layer_s"]
    assert doc["peak_rss_mb"] == PEAK_RSS_MB
    # A gate run against the freshly written values passes.
    code, err = _run_gate(tmp_path, monkeypatch, capsys, committed=doc)
    assert code == 0
    assert "REGRESSION" not in err

    # --update can never weaken the trace-overhead ceiling: it is the tool's
    # constant, not whatever this machine happened to measure.
    wall_s = dict(WALL_S, bulk_traced=WALL_S["bulk"] * (1 + tool.MAX_TRACE_OVERHEAD + 0.05))
    code, _ = _run_gate(tmp_path, monkeypatch, capsys, wall_s=wall_s,
                        committed=None, update=True)
    assert code == 0
    doc = json.loads((tmp_path / "perf_gate.json").read_text())
    assert set(doc) == {"comment", "engine_s", "wall_s", "layer_s", "peak_rss_mb"}
    code, err = _run_gate(tmp_path, monkeypatch, capsys, wall_s=wall_s, committed=doc)
    assert code == 1
    assert "tracing" in err


def _scaled(values, factor):
    """``values`` (nested dicts of numbers) with every number times ``factor``."""
    if isinstance(values, dict):
        return {key: _scaled(value, factor) for key, value in values.items()}
    return values * factor


def test_merge_keeps_committed_values_within_their_bound():
    # Half of each metric's bound, up and down: one slow run loosens no
    # ceiling and one lucky run tightens no floor.
    for direction in (1, -1):
        measured = {
            "engine_s": _scaled(ENGINE_S, 1 + direction * tool.ENGINE_TOLERANCE / 2),
            "wall_s": _scaled(WALL_S, 1 + direction * BOUNDS["wall_s"] / 2),
            "layer_s": _scaled(COMMITTED["layer_s"], 1 + direction * BOUNDS["wall_s"] / 2),
            "peak_rss_mb": _scaled(PEAK_RSS_MB, 1 + direction * BOUNDS["peak_rss_mb"] / 2),
        }
        assert tool.merge_baseline(COMMITTED, measured, BOUNDS) == COMMITTED


def test_merge_takes_values_past_their_bound():
    engine = dict(ENGINE_S, schedule_run=ENGINE_S["schedule_run"] * 0.5)
    wall_s = dict(WALL_S, rpc=WALL_S["rpc"] * 1.5)
    layer_s = _scaled(COMMITTED["layer_s"], 1.0)
    layer_s["bulk"]["kernel.napi"] *= 0.5
    peak_rss_mb = dict(PEAK_RSS_MB, lossy=PEAK_RSS_MB["lossy"] * 1.5)
    measured = {"engine_s": engine, "wall_s": wall_s, "layer_s": layer_s,
                "peak_rss_mb": peak_rss_mb}
    assert tool.merge_baseline(COMMITTED, measured, BOUNDS) == measured


def test_merge_bound_is_the_metrics_own():
    # One change between the wall_s bound and the engine tolerance: the
    # engine floor keeps its value, the wall_s ceiling takes the new one.
    factor = 1 - (BOUNDS["wall_s"] + tool.ENGINE_TOLERANCE) / 2
    assert BOUNDS["wall_s"] < 1 - factor < tool.ENGINE_TOLERANCE
    measured = {"engine_s": _scaled(ENGINE_S, factor), "wall_s": _scaled(WALL_S, factor)}
    merged = tool.merge_baseline(COMMITTED, measured, BOUNDS)
    assert merged == {"engine_s": ENGINE_S, "wall_s": measured["wall_s"]}


def test_merge_adds_new_keys_and_drops_unmeasured_ones():
    layer_s = {name: dict(layers) for name, layers in COMMITTED["layer_s"].items()
               if name != "rpc"}
    layer_s["bulk"]["kernel.new"] = 0.5
    del layer_s["lossy"]["kernel.napi"]
    wall_s = dict(WALL_S, incast=2.0)
    del wall_s["rpc"]
    merged = tool.merge_baseline(COMMITTED, {"wall_s": wall_s, "layer_s": layer_s}, BOUNDS)
    assert merged == {"wall_s": wall_s, "layer_s": layer_s}


def test_update_merges_into_the_committed_values(tmp_path, monkeypatch, capsys):
    # A run a little slower everywhere re-baselines to the same file.
    code, _ = _run_gate(tmp_path, monkeypatch, capsys, update=True,
                        engine=_scaled(ENGINE_S, 1.1), wall_s=_scaled(WALL_S, 1.1),
                        peak_rss_mb=_scaled(PEAK_RSS_MB, 1.05))
    assert code == 0
    doc = json.loads((tmp_path / "perf_gate.json").read_text())
    assert {key: value for key, value in doc.items() if key != "comment"} == COMMITTED


def test_calibration_normalization_is_machine_independent(tmp_path, monkeypatch, capsys):
    """Raw profiled ``self_s`` doubled at the same shares (a host half as
    fast while profiling, which runs without the speed probe) gives the same
    verdict, healthy or not."""
    slow_napi = dict(SHARES, **{"kernel.napi": SHARES["kernel.napi"] * 2})
    for shares, expected in ((SHARES, 0), (slow_napi, 1)):
        verdicts = [
            _run_gate(tmp_path, monkeypatch, capsys, shares=shares, self_s_scale=scale)
            for scale in (1.0, 2.0)
        ]
        assert verdicts[0] == verdicts[1]
        assert verdicts[0][0] == expected


def test_engine_schedule_run():
    assert tool._schedule_and_run() == tool.NUM_EVENTS


def test_engine_cancel_churn():
    assert tool._cancel_churn() == tool.NUM_EVENTS


def test_engine_post_run():
    assert tool._post_run() == tool.NUM_EVENTS
