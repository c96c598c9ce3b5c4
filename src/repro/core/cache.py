"""Persistent, content-addressed cache of experiment results.

Experiments are deterministic functions of their :class:`ExperimentConfig`
(all dataclass fields, ``cost_overrides`` included, plus the seed) and of the
simulator's code, so a result can be stored on disk under a stable content
hash of the config and replayed instead of re-simulated. Regenerating an
unchanged figure then costs a handful of small JSON reads instead of seconds
of DES time.

Layout: ``<cache_dir>/<code digest>/<key[:2]>/<key>.json``. The key,
:func:`config_cache_key`, is the config's identity alone; the directory is
named by :func:`code_digest`, a hash of every ``*.py`` file of the ``repro``
package. Any edit to the package therefore starts an empty directory and
orphans every old entry without touching it on disk, so a warm cache never
serves results of code that has since changed. Each entry stores the
canonical config and the code digest alongside the :func:`result_to_dict`
payload, so entries are self-describing and auditable.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Optional

from ..config import ExperimentConfig
from .export import result_from_dict, result_to_dict
from .results import ExperimentResult

__all__ = [
    "ResultCache",
    "code_digest",
    "config_cache_key",
    "default_cache_dir",
    "source_digest",
]

#: The ``repro`` package directory, whose source :func:`code_digest` hashes.
PACKAGE_ROOT = Path(__file__).resolve().parent.parent

#: Orphaned write-then-rename temp files older than this are swept. Long
#: enough that no live writer (a single experiment runs in seconds) can be
#: mid-rename; short enough that a crashed worker's litter goes quickly.
STALE_TMP_SECONDS = 3600.0


def config_cache_key(config: ExperimentConfig) -> str:
    """Stable SHA-256 content hash of a config: its identity, whatever code
    simulates it."""
    document = json.dumps(
        config.to_canonical_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def source_digest(root: Path) -> str:
    """SHA-256 over every ``*.py`` file under ``root``, in sorted order of
    their relative POSIX paths, each path hashed with its bytes.

    Only ``.py`` files count, so ``__pycache__`` and its ``.pyc`` files do
    not: compiling the package leaves its digest where it was.
    """
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py"), key=lambda p: p.relative_to(root).as_posix()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """:func:`source_digest` of the ``repro`` package, computed once per
    process and only when a :class:`ResultCache` first touches its entries."""
    return source_digest(PACKAGE_ROOT)


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-hostnet``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return override
    return str(Path.home() / ".cache" / "repro-hostnet")


class ResultCache:
    """On-disk result store keyed by config content hash, under a directory
    named by the code digest.

    ``get``/``put`` are the whole interface the runner needs; hit/miss
    counters let callers (and tests) observe cache effectiveness.
    """

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self.root = Path(cache_dir if cache_dir is not None else default_cache_dir())
        self.hits = 0
        self.misses = 0

    def key(self, config: ExperimentConfig) -> str:
        return config_cache_key(config)

    @property
    def code_root(self) -> Path:
        """The directory holding the entries of the code that runs now."""
        return self.root / code_digest()

    def path_for(self, key: str) -> Path:
        return self.code_root / key[:2] / f"{key}.json"

    def get(self, config: ExperimentConfig) -> Optional[ExperimentResult]:
        """The cached result for ``config``, or ``None`` on a miss.

        Unreadable or corrupt entries (interrupted writes, foreign files) are
        treated as misses rather than errors — the runner just re-simulates.
        """
        path = self.path_for(self.key(config))
        try:
            payload = json.loads(path.read_text())
            result = result_from_dict(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, config: ExperimentConfig, result: ExperimentResult) -> Path:
        """Store ``result`` under ``config``'s key; returns the entry path."""
        key = self.key(config)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Opportunistically reclaim temp files orphaned by writers that died
        # between write_text and os.replace (cheap: one shard directory).
        self._sweep_stale_tmp(path.parent)
        document = json.dumps(
            {
                "key": key,
                "code_digest": code_digest(),
                "config": config.to_canonical_dict(),
                "result": result_to_dict(result),
            },
            sort_keys=True,
        )
        # Write-then-rename so readers never observe a half-written entry.
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(document)
        os.replace(tmp, path)
        return path

    def _sweep_stale_tmp(self, directory: Path, max_age_s: float = STALE_TMP_SECONDS) -> int:
        """Delete orphaned ``*.tmp.<pid>`` files in ``directory``.

        Only files older than ``max_age_s`` go, so a concurrent writer's
        in-flight temp file is never yanked out from under its rename.
        """
        removed = 0
        # File mtimes are wall-clock, so the staleness comparison must be
        # too; this never reaches simulated results.
        now = time.time()  # repro-lint: allow[det-wallclock] mtime comparison for GC only
        try:
            candidates = sorted(directory.glob("*.tmp.*"))
        except OSError:
            return 0
        for tmp in candidates:
            try:
                if now - tmp.stat().st_mtime >= max_age_s:
                    tmp.unlink()
                    removed += 1
            except OSError:
                continue  # already gone, or contended: next sweep gets it
        return removed

    def clear(self) -> int:
        """Delete every entry of the running code's digest (and any orphaned
        temp files, whatever their age); returns the entry count."""
        removed = 0
        code_root = self.code_root
        if not code_root.exists():
            return 0
        for entry in sorted(code_root.rglob("*.json")):
            entry.unlink()
            removed += 1
        for tmp in sorted(code_root.rglob("*.tmp.*")):
            tmp.unlink()
        return removed

    def __len__(self) -> int:
        code_root = self.code_root
        if not code_root.exists():
            return 0
        # repro-lint: allow[det-fs-order] counting entries is order-insensitive
        return sum(1 for _ in code_root.rglob("*.json"))
