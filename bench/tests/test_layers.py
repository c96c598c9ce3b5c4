import pytest

from bench import ROOT, SRC
from bench.layers import LAYER_NAMES, UNATTRIBUTED, layer_of, owners

PACKAGE = SRC / "repro"


def test_every_module_maps_to_exactly_one_layer():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for module in modules:
        relpath = module.relative_to(PACKAGE).as_posix()
        assert len(owners(relpath)) <= 1, f"{relpath} owned by {owners(relpath)}"
        assert layer_of(relpath) in LAYER_NAMES


@pytest.mark.parametrize("relpath, layer", [
    ("sim/engine.py", "sim"),
    ("hardware/cache.py", "hardware.cache"),
    ("core/cache.py", "core.runner"),  # the result cache, not the modelled L3
    ("costs/model.py", "hardware.cpu"),
    ("kernel/tcp/cc/cubic.py", "kernel.tcp"),
    ("trace.py", "core.metrics"),
    ("figures/fig3.py", "core.runner"),
])
def test_layer_of(relpath, layer):
    assert layer_of(relpath) == layer


def test_traced_shares_sum_to_one(layers_run):
    proc, runs, _ = layers_run
    assert proc.returncode == 0, proc.stderr
    assert runs
    for run in runs:
        metrics = run["metrics"]
        total = sum(metrics[f"{layer}.share"]["value"] for layer in LAYER_NAMES)
        unattributed = metrics[f"{UNATTRIBUTED}.share"]["value"]
        assert total + unattributed == pytest.approx(1.0, abs=0.01), run["workload"]
        assert unattributed <= 0.02, run["workload"]


def test_layers_run_writes_spans_and_profiles(layers_run):
    _, runs, out_dir = layers_run
    assert (out_dir / "spans.jsonl").read_text().strip()
    for run in runs:
        assert (out_dir / f"{run['workload']}.prof").stat().st_size > 0


def test_benchmark_never_names_simulator_modes():
    # Built by concatenation so this file does not match itself.
    forbidden = ("frame_" + "trains", "exp" + "ress", "no_" + "train", "no_" + "exp" + "ress")
    for path in sorted((ROOT / "bench").rglob("*")):
        if path.suffix not in (".py", ".md", ".json"):
            continue
        text = path.read_text().lower()
        for word in forbidden:
            assert word not in text, f"{path.relative_to(ROOT)} mentions {word!r}"
