"""Regenerate the golden figure-config digest file.

Harvests every experiment config any figure generator submits, runs each one
with the shortened golden windows, and records (a) the config identity
(``config_cache_key``) of the *original* figure config and (b) a SHA-256
digest of the canonical ``result_to_dict`` payload of the shortened run. The
committed output (``tests/golden/figure_digests.json``) pins the simulator's
observable behaviour: any engine or hot-path change that alters a single
float in any result shows up as a digest mismatch in
``tests/integration/test_golden_digests.py``.

Run from the repo root after an *intentional* behaviour change, or after a
config change that moves the identities::

    PYTHONPATH=src python tools/gen_golden_digests.py

It also prints how many of the digests it wrote the file did not hold
before: 0 after a pure re-key, and the number of configs whose result
moved after a behaviour change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.golden import compute_golden_document

OUT = Path(__file__).resolve().parent.parent / "tests" / "golden" / "figure_digests.json"


def _digest_values(document: dict) -> list:
    return [entry["result_sha256"] for entry in document["digests"].values()]


def main() -> int:
    committed = set(_digest_values(json.loads(OUT.read_text())))
    document = compute_golden_document()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"{len(document['digests'])} config digests written to {OUT}")
    new = [value for value in _digest_values(document) if value not in committed]
    print(f"{len(new)} written digest values absent from the previous file")
    return 0


if __name__ == "__main__":
    sys.exit(main())
