"""Golden-digest plumbing: pin the simulator's observable behaviour.

The configs every figure panel submits come from
:func:`repro.figures.base.harvest_configs`; each unique config is simulated
with shortened measurement windows and reduced to two stable strings:

* the persistent-cache key of the *original* (full-window) config, and
* a SHA-256 digest of the canonical ``result_to_dict`` payload of the
  shortened run.

Because experiments are deterministic functions of their configs, these
digests change **iff** the simulator's observable behaviour changes — which
is exactly the property the engine/hot-path rewrites must preserve. The
committed reference lives in ``tests/golden/figure_digests.json`` and is
regenerated (after an intentional behaviour change) with
``PYTHONPATH=src python tools/gen_golden_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Tuple

from .config import ExperimentConfig
from .core.cache import CACHE_SCHEMA_VERSION, config_cache_key
from .core.experiment import Experiment
from .core.export import result_to_dict
from .figures.base import harvest_configs
from .units import msec

#: Shortened measurement windows for the digest sweep. Long enough that the
#: loss/retransmission configs exercise their recovery paths, short enough
#: that ~130 configs run in one test session.
GOLDEN_DURATION_NS = msec(2)
GOLDEN_WARMUP_NS = msec(3)

#: The harvester's name from before it moved to ``figures.base``. Its only
#: user is ``bench/tests/test_workloads.py``.
harvest_figure_configs = harvest_configs


def result_digest(result) -> str:
    """SHA-256 of the canonical JSON encoding of a result payload."""
    document = json.dumps(
        result_to_dict(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def golden_run(config: ExperimentConfig) -> Tuple[str, Experiment, str]:
    """Run ``config`` at the golden windows: ``(cache key of the full config,
    the finished experiment, digest of its result)``."""
    experiment = Experiment(
        config.replace(duration_ns=GOLDEN_DURATION_NS, warmup_ns=GOLDEN_WARMUP_NS)
    )
    digest = result_digest(experiment.run())
    return config_cache_key(config), experiment, digest


def compute_golden_document() -> dict:
    """The full golden document: one digest entry per unique figure config."""
    configs = harvest_configs()
    digests = {}
    for config in configs:
        key, _, digest = golden_run(config)
        canonical = config.to_canonical_dict()
        digests[key] = {
            "summary": (
                f"{canonical.get('pattern', '?')} x{canonical.get('num_flows', '?')}"
                f" seed={canonical.get('seed', '?')}"
            ),
            "result_sha256": digest,
        }
    return {
        "cache_schema_version": CACHE_SCHEMA_VERSION,
        "duration_ns": GOLDEN_DURATION_NS,
        "warmup_ns": GOLDEN_WARMUP_NS,
        "digests": digests,
    }
