"""Tier-1 runs on a private result cache (``tests/conftest.py``)."""

import os

from repro.cli import main
from repro.core.cache import default_cache_dir

from ..conftest import cache_listing


def test_tier1_default_cache_is_private(hermetic_cache, tmp_path_factory):
    private = default_cache_dir()
    assert private == os.environ["REPRO_CACHE_DIR"]
    assert private != hermetic_cache.path
    assert private.startswith(str(tmp_path_factory.getbasetemp()))


def test_cached_cli_run_writes_nothing_under_the_user_cache(capsys, hermetic_cache):
    before = cache_listing(default_cache_dir())
    argv = ["run", "--duration-ms", "1", "--warmup-ms", "1", "--seed", "7"]
    assert main(argv) == 0
    assert cache_listing(hermetic_cache.path) == hermetic_cache.listing
    assert len(cache_listing(default_cache_dir())) == len(before) + 1
