"""The paper's claims, asserted on the tables ``repro figure all`` prints.

The session renders every panel (``repro.figures.PANELS``) once, from one
batch through the persistent result cache (``$REPRO_CACHE_DIR`` or
``~/.cache/repro-hostnet``), and tests read the tables by panel name. Right
after ``repro figure all`` on the same cache the directory runs in seconds
and simulates nothing; cold, it simulates every figure config. Tier-1 does
not collect this directory (DESIGN.md §8 says why)::

    PYTHONPATH=src python -m repro figure all --jobs 2
    PYTHONPATH=src python -m pytest tests/claims -q
"""

from typing import Dict, Iterable

import pytest

from repro.core.cache import ResultCache, default_cache_dir
from repro.core.report import Table
from repro.core.runner import RunnerStats
from repro.figures import PANELS, base

STATS = RunnerStats()


@pytest.fixture(scope="session", autouse=True)
def hermetic_cache():
    """Read the user's cache: these tests check the tables that ``repro
    figure all`` rendered into it (``tests/conftest.py`` gives tier-1 a
    private one)."""
    yield


@pytest.fixture(scope="session")
def panels() -> Dict[str, Table]:
    """Every panel's table, rendered from one batch, one worker per CPU."""
    rendered, _ = base.render(
        sorted(PANELS), jobs=None, cache=ResultCache(default_cache_dir()), stats=STATS
    )
    return {name: table for name, (table, _) in rendered.items()}


def pick(table: Table, column: str, keys: Iterable[object]) -> Table:
    """``table`` cut to the rows whose ``column`` is one of ``keys``, in
    table order; every key must match a row."""
    keys = set(keys)
    index = table.columns.index(column)
    picked = Table(table.title, table.columns)
    picked.rows = [row for row in table.rows if row[index] in keys]
    assert {row[index] for row in picked.rows} == keys, (
        f"{table.title}: column {column!r} lacks some of {sorted(map(str, keys))}"
    )
    return picked


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(
        f"runner: {STATS.experiments_run} experiments simulated, "
        f"{STATS.cache_hits} served from cache"
    )
