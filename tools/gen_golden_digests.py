"""Regenerate the golden figure-config digest file.

Harvests every experiment config any figure generator submits, runs each one
with the shortened golden windows, and records (a) the cache key of the
*original* figure config and (b) a SHA-256 digest of the canonical
``result_to_dict`` payload of the shortened run. The committed output
(``tests/golden/figure_digests.json``) pins the simulator's observable
behaviour: any engine or hot-path change that alters a single float in any
result shows up as a digest mismatch in
``tests/integration/test_golden_digests.py``.

Run from the repo root after an *intentional* behaviour change::

    PYTHONPATH=src python tools/gen_golden_digests.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.golden import compute_golden_document

OUT = Path(__file__).resolve().parent.parent / "tests" / "golden" / "figure_digests.json"


def main() -> int:
    document = compute_golden_document()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"{len(document['digests'])} config digests written to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
