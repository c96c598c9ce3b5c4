"""Smoke test: ``examples/quickstart.py`` runs and prints its headline."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"


def test_quickstart_prints_headline(capsys):
    spec = importlib.util.spec_from_file_location("quickstart", _PATH)
    quickstart = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(quickstart)
    quickstart.main()
    lines = capsys.readouterr().out.splitlines()
    headline = {
        label.strip(): value.split()[0]
        for label, _, value in (line.partition(":") for line in lines)
        if label.strip() in ("total throughput", "throughput-per-core")
    }
    assert set(headline) == {"total throughput", "throughput-per-core"}
    assert all(float(value) > 0 for value in headline.values())
    assert "receiver CPU breakdown (paper Fig 3d, '+aRFS' column):" in lines
    assert any(line.split()[:2] == ["data", "copy"] for line in lines)
