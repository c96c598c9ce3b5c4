"""Persistent, content-addressed cache of experiment results.

Experiments are deterministic functions of their :class:`ExperimentConfig`
(all dataclass fields, ``cost_overrides`` included, plus the seed), so a
result can be stored on disk under a stable content hash of the config and
replayed instead of re-simulated. Regenerating an unchanged figure then costs
a handful of small JSON reads instead of seconds of DES time.

Layout: ``<cache_dir>/v<schema>/<key[:2]>/<key>.json``. Each entry stores the
canonical config alongside the :func:`result_to_dict` payload, so entries are
self-describing and auditable. Bumping :data:`CACHE_SCHEMA_VERSION` (done
whenever the simulator's behaviour or the result encoding changes
incompatibly) orphans every old entry without touching them on disk.
"""

from __future__ import annotations

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
    "CACHE_SCHEMA_VERSION",
    "ResultCache",
    "config_cache_key",
    "default_cache_dir",
]

#: Bump whenever simulator behaviour or the result encoding changes in a way
#: that makes previously cached results stale.
#: v2: per-tag throughput is single-sided (receiver host), latency payloads
#: carry a ``dropped`` reservoir count, and results may embed audit reports.
#: v3: latency ``count`` means total observations with ``retained`` explicit,
#: reservoir RNG streams are per-host, configs grow a ``trace`` key field,
#: and traced results embed per-stage trace reports.
#: v4: the copy latency is a log-linear streaming histogram (the trace's
#: ``e2e`` stage) instead of a reservoir summary, so its payload and its
#: p50/p99 change, and every trace histogram uses the log-linear buckets.
CACHE_SCHEMA_VERSION = 4

#: Orphaned write-then-rename temp files older than this are swept. Long
#: enough that no live writer (a single experiment runs in seconds) can be
#: mid-rename; short enough that a crashed worker's litter goes quickly.
STALE_TMP_SECONDS = 3600.0


def config_cache_key(
    config: ExperimentConfig, schema_version: int = CACHE_SCHEMA_VERSION
) -> str:
    """Stable SHA-256 content hash of a config under a cache schema version."""
    document = json.dumps(
        {"schema_version": schema_version, "config": config.to_canonical_dict()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-hostnet``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return override
    return str(Path.home() / ".cache" / "repro-hostnet")


class ResultCache:
    """On-disk result store keyed by config content hash.

    ``get``/``put`` are the whole interface the runner needs; hit/miss
    counters let callers (and tests) observe cache effectiveness.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        schema_version: int = CACHE_SCHEMA_VERSION,
    ) -> None:
        self.root = Path(cache_dir if cache_dir is not None else default_cache_dir())
        self.schema_version = schema_version
        self.hits = 0
        self.misses = 0

    def key(self, config: ExperimentConfig) -> str:
        return config_cache_key(config, self.schema_version)

    def path_for(self, key: str) -> Path:
        return self.root / f"v{self.schema_version}" / key[:2] / f"{key}.json"

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
                "schema_version": self.schema_version,
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
        """Delete every entry of this cache's schema version (and any
        orphaned temp files, whatever their age); returns the entry count."""
        removed = 0
        version_root = self.root / f"v{self.schema_version}"
        if not version_root.exists():
            return 0
        for entry in sorted(version_root.rglob("*.json")):
            entry.unlink()
            removed += 1
        for tmp in sorted(version_root.rglob("*.tmp.*")):
            tmp.unlink()
        return removed

    def __len__(self) -> int:
        version_root = self.root / f"v{self.schema_version}"
        if not version_root.exists():
            return 0
        # repro-lint: allow[det-fs-order] counting entries is order-insensitive
        return sum(1 for _ in version_root.rglob("*.json"))
