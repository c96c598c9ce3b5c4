"""Golden-digest regression test: the simulator's observable behaviour.

Compares every unique figure-experiment config against the committed
reference in ``tests/golden/figure_digests.json``: the persistent-cache key
of the full-window config must be unchanged (cache compatibility across the
engine swap) and the SHA-256 digest of the canonical ``result_to_dict``
payload of a shortened run must be byte-identical (no float anywhere in any
result moved). The reference was generated with the original heap engine,
so this test is the proof that every later engine and hot-path rewrite is
behaviour-preserving. The figure configs run with tracing off; the
``bulk_traced`` benchmark configs (fig3a and fig12a with tracing on) are
pinned separately in ``TRACED_DIGESTS``, so the trace payload is pinned too.

Each figure config runs once per session, in the ``figure_sweep`` fixture
(``conftest.py``) that the strict-audit gate reads too. The traced configs
are strict-audited here as well, which covers the ``trace.*`` identities.

Regenerate after an intentional behaviour change::

    PYTHONPATH=src python tools/gen_golden_digests.py
"""

import json
from pathlib import Path

import pytest

from repro.core.audit import AuditError, audit_experiment
from repro.core.cache import CACHE_SCHEMA_VERSION, config_cache_key
from repro.figures.base import harvest_configs
from repro.golden import GOLDEN_DURATION_NS, GOLDEN_WARMUP_NS, golden_run

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" / "figure_digests.json"


@pytest.fixture(scope="module")
def golden_document():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def test_golden_file_matches_current_schema(golden_document):
    assert golden_document["cache_schema_version"] == CACHE_SCHEMA_VERSION
    assert golden_document["duration_ns"] == GOLDEN_DURATION_NS
    assert golden_document["warmup_ns"] == GOLDEN_WARMUP_NS


def test_all_figure_configs_are_pinned(golden_document, harvested_configs):
    """Every config a figure submits has a golden entry, and vice versa."""
    current_keys = {config_cache_key(config) for config in harvested_configs}
    golden_keys = set(golden_document["digests"])
    assert current_keys == golden_keys
    assert len(golden_keys) >= 100


def test_result_digests_are_byte_identical(golden_document, figure_sweep):
    """Run every pinned config and compare result digests against golden."""
    digests = golden_document["digests"]
    mismatches = []
    for key, digest in figure_sweep.digests.items():
        expected = digests[key]["result_sha256"]
        if digest != expected:
            mismatches.append((digests[key]["summary"], expected, digest))
    assert not mismatches, (
        f"{len(mismatches)} of {len(figure_sweep.digests)} configs diverged "
        f"from golden digests; first: {mismatches[0]}"
    )


#: The panels of the ``bulk_traced`` benchmark workload, run with tracing on.
TRACED_PANELS = ("fig3a", "fig12a")

#: Cache key of each full-window traced config -> digest of its shortened
#: (golden-window) run, trace payload included.
TRACED_DIGESTS = {
    "f390047f59df526309443dba714cf0da3306bfcd51ee6e29783b49aebe941408": "37bf68f185123cfd6d076b68877a05531cd873a69de7e55bbfa65de205a75bd5",
    "0f8772f7f89af3d9b928ff1cde08f057af119a90d7c6a4113ca626793c2b3655": "005e1d666419d145634c17d92dd1e78a7bf3e90ac8cbfeb818769f76dc9c4100",
    "37a60eb6a617b3285f7343d23439b95ddffb79238551aa80c4b217ec4a3b251c": "831167b9d6ae8a43ee45a3a8df376061c724215bdd7b01671071c8ef1fa1b0c5",
    "59e3fab7c4d8efd0d7715eef15987757069174f5073dcbb7eb886ffbcf599b38": "972977517849680893d6a420aa2c38129b4925d0ae2c129d1b7b89bef3ee95c1",
    "35cb622b1f843b48232390432b41b8a34ff73cb90e3df835f833f950652d6c96": "37bf68f185123cfd6d076b68877a05531cd873a69de7e55bbfa65de205a75bd5",
    "013db0f6c246af1d0932c3d064e04e2c1c5dbaee3bb1f65ad8c6688a6ec72719": "005e1d666419d145634c17d92dd1e78a7bf3e90ac8cbfeb818769f76dc9c4100",
    "20665153c7bb61cf97dc5b18db637347c4a077edd8edce1e971d06e590c5c47c": "831167b9d6ae8a43ee45a3a8df376061c724215bdd7b01671071c8ef1fa1b0c5",
    "c7886ce7327c2834497c440507eab847a6b4f65af672fa92506be1b4479be527": "8fcfd9af0db4e659e20c29967e0dbf478864c2ad6c5c075129aec950622a0bf7",
    "36af0b6cb79d22e811cf27f89de86fb17d54985fc9c9cc9cc81b7fcb22f9bc83": "c585b467d1830531c18559341bfc0a2e5d19896855c9e1a2c64cf26b5cec1133",
    "199dead96d90b02a0786d902897e430b347ab70b87981d3d520b8a592b091435": "276df23cc10669e7d8452e0a9270231bdbc9f297a8b8e7e55fc5e646157993ba",
    "f87d9c54b02520d4a728aae7cf15926aa6c264264347e0fb7dfc770f90f40ffe": "769299b4a632baf9966d5529bd8704a08caace7f9fbe85e8941742622c5ce997",
    "78a1514e0ff04ff9df4c634e6b753af7a2106c45f416a39b97f5936f1166c9bf": "95cce5e374c36bfe98f1f91e3a23564e02cc163a4957d4281ac4040750f6abc3",
}


def test_traced_result_digests_are_byte_identical():
    """Run the traced bulk configs and compare digests, trace included;
    each run must also pass the strict audit, trace identities included."""
    configs = [
        config.replace(trace=True)
        for config in harvest_configs(TRACED_PANELS)
    ]
    assert {config_cache_key(config) for config in configs} == set(TRACED_DIGESTS)
    mismatches, audit_failures = [], []
    for config in configs:
        key, experiment, digest = golden_run(config)
        if digest != TRACED_DIGESTS[key]:
            mismatches.append((key, TRACED_DIGESTS[key], digest))
        assert experiment.trace is not None, key  # so the audit checks trace.*
        try:
            audit_experiment(experiment, strict=True)
        except AuditError as error:
            audit_failures.append(f"{key}:\n{error}")
    assert not mismatches, (
        f"{len(mismatches)} of {len(configs)} traced configs diverged "
        f"from golden digests; first: {mismatches[0]}"
    )
    assert not audit_failures, "\n\n".join(audit_failures)
