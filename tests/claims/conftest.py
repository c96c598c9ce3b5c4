"""The paper's claims, asserted on the panels' own tables at figure length.

Every test here reads panels (``repro.figures.PANELS``) through the persistent
result cache (``$REPRO_CACHE_DIR`` or ``~/.cache/repro-hostnet``), so right
after ``repro figure all`` the directory runs in seconds and simulates
nothing; cold, it simulates what it reads. Tier-1 does not collect this
directory (DESIGN.md §8 says why)::

    PYTHONPATH=src python -m repro figure all --jobs 2
    PYTHONPATH=src python -m pytest tests/claims -q
"""

import pytest

from repro.core.cache import ResultCache, default_cache_dir
from repro.figures import base


@pytest.fixture(scope="session", autouse=True)
def panel_cache():
    """Route every panel through the shared result cache, one worker per CPU."""
    base.configure(jobs=None, cache=ResultCache(default_cache_dir()))
    base.STATS.reset()
    yield
    base.configure()


def pytest_terminal_summary(terminalreporter):
    stats = base.STATS
    terminalreporter.write_line(
        f"runner: {stats.experiments_run} experiments simulated, "
        f"{stats.cache_hits} served from cache"
    )
