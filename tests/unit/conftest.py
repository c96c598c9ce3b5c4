"""Fixtures shared by the unit tests."""

import pytest

from repro.figures import base as figures_base
from repro.units import msec


@pytest.fixture
def short_figure_windows(monkeypatch):
    """Run figure experiments at 1 ms measured after a 2 ms warmup."""
    monkeypatch.setattr(figures_base, "DURATION_NS", msec(1))
    monkeypatch.setattr(
        figures_base, "WARMUP_NS",
        {pattern: msec(2) for pattern in figures_base.WARMUP_NS},
    )
