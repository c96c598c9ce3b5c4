"""Golden-digest regression test: the simulator's observable behaviour.

Compares every unique figure-experiment config against the committed
reference in ``tests/golden/figure_digests.json``. Each entry is keyed by the
persistent-cache key of the full-window config, so the pinned keys must be
exactly those of the configs the panels submit today; adding or removing a
config field moves every key, and the entries are then re-keyed with their
digests untouched. The SHA-256 digest of the canonical ``result_to_dict``
payload of a shortened run must be byte-identical (no float anywhere in any
result moved). The digests were generated with the original heap engine,
so this test is the proof that every later engine and hot-path rewrite is
behaviour-preserving. The figure configs run with tracing off; the
``bulk_traced`` benchmark configs (fig3a and fig12a with tracing on) are
pinned separately in ``TRACED_DIGESTS``, so the trace payload is pinned too.

Each figure config runs once per session, in the ``figure_sweep`` fixture
(``conftest.py``) that the strict-audit gate reads too. The traced configs
are strict-audited here as well, which covers the ``trace.*`` identities.

Regenerate after an intentional behaviour change or a config field change::

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
    "2645b53f701c813eb5b40d5b09f29c2a92ac8044933b340f9b27915958b6249d": "37bf68f185123cfd6d076b68877a05531cd873a69de7e55bbfa65de205a75bd5",
    "66cbcae4a02b186643a64276b9094ede7806f8561255350edafc911f8b96e664": "005e1d666419d145634c17d92dd1e78a7bf3e90ac8cbfeb818769f76dc9c4100",
    "efacd75f2193cc054655409ae8bfc39f10721dbd263b288ad7753e9deb8c1895": "831167b9d6ae8a43ee45a3a8df376061c724215bdd7b01671071c8ef1fa1b0c5",
    "0ccca954de0e3179913852ed22f5adbcb5a9141c84a54f19d11e96a0d4021169": "972977517849680893d6a420aa2c38129b4925d0ae2c129d1b7b89bef3ee95c1",
    "49e8c9aeca5d7f87d6a130654592bc4b9c99e226f50478bc116986c8bf6bd143": "37bf68f185123cfd6d076b68877a05531cd873a69de7e55bbfa65de205a75bd5",
    "a256979dcd2458106e14bf149f76fc9ccc762186878f698f09d1b9877143cb09": "005e1d666419d145634c17d92dd1e78a7bf3e90ac8cbfeb818769f76dc9c4100",
    "0742fe520d5a1fe27aa8732cba0f32d017084ff8af44038f174162e5e94b501a": "831167b9d6ae8a43ee45a3a8df376061c724215bdd7b01671071c8ef1fa1b0c5",
    "d12ad38b8162f8d2c0ab0bd273cecfdeb95b83077a71022e48db14d43d9c1bbd": "8fcfd9af0db4e659e20c29967e0dbf478864c2ad6c5c075129aec950622a0bf7",
    "adbcfacbd7657f7e7c0f25befb87681757dca6f4dbbc63bbda7d132540b71510": "c585b467d1830531c18559341bfc0a2e5d19896855c9e1a2c64cf26b5cec1133",
    "6dd3b0eb10731894414a6a11d6ba1dadc6d6bff119dd20b07f7db4d266b2bce3": "276df23cc10669e7d8452e0a9270231bdbc9f297a8b8e7e55fc5e646157993ba",
    "205356917bd254f19d81c1528d2c964209efad7fa450ad8091dd104d8bac24bc": "769299b4a632baf9966d5529bd8704a08caace7f9fbe85e8941742622c5ce997",
    "3d101333f6d8ebc8aee11b0d269190c09097830e06da7e552e24340e2b966d1f": "95cce5e374c36bfe98f1f91e3a23564e02cc163a4957d4281ac4040750f6abc3",
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
