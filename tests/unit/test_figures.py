"""Unit tests for the figure-generator plumbing (structure, not sweeps)."""

import pytest

from repro.core.audit import merge_reports
from repro.core.cache import ResultCache
from repro.core.report import Table
from repro.core.runner import RunnerStats
from repro.core.taxonomy import Category
from repro.figures import ALL_FIGURES, PANELS, fig11, fig3, fig4, tables
from repro.figures import base as figures_base
from repro.figures.base import harvest_configs, render


def test_registry_covers_every_evaluation_figure():
    names = set(ALL_FIGURES)
    assert {f"fig{i}" for i in range(3, 14)} <= names
    assert "tables" in names


def test_panels_cover_every_figure_and_both_tables():
    assert {"fig3a", "fig4", "fig13c", "table1", "table2"} <= set(PANELS)
    assert PANELS["fig3a"] is fig3.fig3a


def test_harvest_rejects_an_unknown_panel():
    with pytest.raises(KeyError):
        harvest_configs(["fig3a", "fig99z"])


def test_table1_structure():
    table = tables.table1()
    assert isinstance(table, Table)
    assert len(table.rows) == len(Category)
    assert table.column("component")[0] == "data copy"


def test_table2_lists_all_mechanisms():
    table = tables.table2()
    assert table.column("mechanism") == ["RPS", "RFS", "RSS", "ARFS"]


def test_fig3f_small_sweep_structure(short_figure_windows):
    table = fig3.fig3f()
    assert table.columns == [
        "rx_buffer_kb", "avg_latency_us", "p99_latency_us", "thpt_gbps"
    ]
    assert table.column("rx_buffer_kb") == list(fig3.LATENCY_BUFFERS_KB)
    assert all(thpt > 0 for thpt in table.column("thpt_gbps"))


def test_fig4_two_placements():
    table = fig4.fig4()
    assert [row[0] for row in table.rows] == ["NIC-local NUMA", "NIC-remote NUMA"]


def test_fig11_isolation_table_shape(short_figure_windows):
    table = fig11.fig11_isolation()
    assert len(table.rows) == 2
    assert table.columns == ["workload", "long_gbps", "short_gbps"]
    assert table.column("workload") == ["isolated", "mixed (1 long + 16 short)"]


LADDER_PANELS = ["fig3a", "fig3b", "fig3c", "fig3d"]


def test_render_simulates_a_shared_ladder_once(short_figure_windows, tmp_path):
    """Fig 3a-3d read one ladder of four configs: one batch runs it once."""
    stats = RunnerStats()
    panels, batch = render(LADDER_PANELS, cache=ResultCache(tmp_path), stats=stats)
    assert (stats.experiments_run, stats.cache_hits) == (4, 0)
    assert list(panels) == LADDER_PANELS
    assert len(batch) == 4
    for table, results in panels.values():
        assert len(table.rows) == 4
        assert {id(result) for result in results} == {id(result) for result in batch}


def test_render_audits_each_config_once(short_figure_windows):
    stats = RunnerStats()
    _, batch = render(LADDER_PANELS, audit=True, stats=stats)
    assert stats.experiments_run == 4
    report = merge_reports([result.audit_report for result in batch])
    _, alone = render(["fig3a"], audit=True)
    assert report.ok, report.render()
    assert report.checks_run == merge_reports(
        [result.audit_report for result in alone]
    ).checks_run > 0


def test_render_never_simulates_a_config_missing_from_the_batch(monkeypatch):
    monkeypatch.setattr(figures_base, "harvest_configs", lambda names: [])
    stats = RunnerStats()
    with pytest.raises(KeyError):
        render(["fig4"], stats=stats)
    assert stats.experiments_run == 0


def test_every_figure_module_exposes_a_panel():
    panel_modules = {generator.__module__ for generator in PANELS.values()}
    for name, module in ALL_FIGURES.items():
        assert module.__name__ in panel_modules, f"{name} exposes no panels"
