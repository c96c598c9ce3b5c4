"""Unit tests for the figure-generator plumbing (structure, not sweeps)."""

import pytest

from repro.core.report import Table
from repro.core.taxonomy import Category
from repro.figures import ALL_FIGURES, PANELS, fig11, fig3, fig4, tables
from repro.figures.base import harvest_configs


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


def test_fig3f_small_sweep_structure():
    table = fig3.fig3f(buffers_kb=(400,))
    assert table.columns == [
        "rx_buffer_kb", "avg_latency_us", "p99_latency_us", "thpt_gbps"
    ]
    assert len(table.rows) == 1
    assert table.rows[0][0] == 400
    assert table.rows[0][3] > 0


def test_fig4_two_placements():
    table = fig4.fig4()
    assert [row[0] for row in table.rows] == ["NIC-local NUMA", "NIC-remote NUMA"]


def test_fig11_isolation_table_shape():
    table = fig11.isolation_comparison(num_short=1)
    assert len(table.rows) == 2
    assert table.columns == ["workload", "long_gbps", "short_gbps"]


def test_every_figure_module_has_a_generate_all_or_panel():
    panel_modules = {generator.__module__ for generator in PANELS.values()}
    for name, module in ALL_FIGURES.items():
        assert module.__name__ in panel_modules, f"{name} exposes no panels"
