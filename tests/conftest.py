"""Fixtures shared by every test directory.

Tier-1 (``tests/unit``, ``tests/integration``, ``tests/property``) runs on a
private result cache: :func:`hermetic_cache` points ``$REPRO_CACHE_DIR`` at a
fresh temporary directory for the whole session. A test that reaches the
CLI's default cache then simulates the code under test instead of reading
results a warm user cache holds, and leaves the user's cache untouched,
which the fixture checks when the session ends. ``tests/claims`` overrides
it: those tests read the cache ``repro figure all`` warmed (DESIGN.md §8).
"""

import os
from typing import Dict, NamedTuple

import pytest

from repro.core.cache import default_cache_dir


def cache_listing(root: str) -> Dict[str, int]:
    """Every file under ``root`` -> its modification time (ns)."""
    listing = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            listing[path] = os.stat(path).st_mtime_ns
    return listing


class UserCache(NamedTuple):
    """The cache directory the session started with, and what it held."""

    path: str
    listing: Dict[str, int]


@pytest.fixture(scope="session", autouse=True)
def hermetic_cache(tmp_path_factory):
    user = UserCache(default_cache_dir(), cache_listing(default_cache_dir()))
    saved = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    try:
        yield user
    finally:
        if saved is None:
            del os.environ["REPRO_CACHE_DIR"]
        else:
            os.environ["REPRO_CACHE_DIR"] = saved
    assert cache_listing(user.path) == user.listing, (
        f"the test session wrote under the user's result cache {user.path}"
    )
