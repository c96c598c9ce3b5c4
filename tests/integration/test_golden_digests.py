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
Those run on lossless, switchless links; fig9a's four configs (switch,
random loss, ECN marking) are pinned traced in ``TRACED_LOSSY_DIGESTS``, so
the traced drop and mark path of the wire is pinned as well.

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
    "2120eb5bd32cffdaeeb6b379974b2a4f87d18debde90bcd8922cb7489a74a237": "47a4d36e89adbf70f4a520658facf6aedbcc6d0f19056637a866e8d2ddf83a2c",
    "4665d14ae85aed3aa0b3ca07b70b8e98d8ad365f590cea8d4f99a0bafe32b6bc": "e48e69ca41c3ca6e79d82cd3900b141ab3e9fda1034d43f1d5b7fbb97efff598",
    "c8dcae6643c4fbaea9c5f0fa565b9a2b69096bb0642af91dc35c573c122d5d15": "12e010347f66288299c2d06f83225debda65295f8d60b1dc2adb1ffbd2aaf022",
    "adc24a68311d323ee46c7f91165d156c32805d22bf5e714d123c13477be6df05": "10a416c2de12ebfedd7fdb6a4069948e59e3e4fe382a14b8026d01a484b9d096",
    "c5aaa8fe38b7551062cb3429e9c57b9ada9e5f8a33f16ff43e3fea3981acbdb4": "47a4d36e89adbf70f4a520658facf6aedbcc6d0f19056637a866e8d2ddf83a2c",
    "4482e855485314bfe5b01239789ed999735d9a6af52e28e564e8017666ff4d1f": "e48e69ca41c3ca6e79d82cd3900b141ab3e9fda1034d43f1d5b7fbb97efff598",
    "399b0cab1451a5004ecb8cdcab20c042ad6d5fdc0deb1a8739217a971312a6bb": "12e010347f66288299c2d06f83225debda65295f8d60b1dc2adb1ffbd2aaf022",
    "525162b67c91d13bd77722778d7247f1cf98b93c3a15ce63001c1439c8d97e85": "4e57ad97117ed0713ffa1ddb59948a21081a4c3c54629ca21d09e95e057bbb45",
    "74eef45b6cfe96a2e1bc56354f741773c179706f6a06ea8596f762862d4ebe06": "62d630046777023815940677252b12eaa33feaff35095a48b4e99272b906ed8c",
    "64a63ce0912dee86632cbbeec3b9beaa18864a577c1ffdeb8adbaf6099bd64a2": "d422a3b6a5b18b118a30cc7ec4102a7484a8bd888874a5b61d2a703378c35354",
    "3f5890a6e4b89b1a757cdfc1087619a74c78e69167193c9cd8f5d4a4fd17d6af": "eb472956900ea33635463678a56319828850d55d949226324251183ab6a76793",
    "6606220cd187e92efc49faa034997574bc28ead55f30c2d53f2d46c2c4e8e2e6": "34269d7b2582cb88a6ea96940d5a322011e434765cb071d9ac8ff80d9ad98817",
}


#: fig9a with tracing on: a switched link with random loss (0 to 1.5e-2)
#: and ECN marking, so dropped and marked frames cross the traced wire path.
TRACED_LOSSY_PANELS = ("fig9a",)

TRACED_LOSSY_DIGESTS = {
    "10fef91a599668cba0395fbaa9cbea2d0d1b8d0d68ca4e4033bc43cf0492ad54": "b38e898ba6c734671fc7569b1bbc4110737e774b7b220bf233d09b8820ab2dd3",
    "8dbb9cd736334d9944b5db02b7e270b35fa4d75ca10aec4411eed9efdbe44b2f": "b38e898ba6c734671fc7569b1bbc4110737e774b7b220bf233d09b8820ab2dd3",
    "0291df9cf856db5929b46df884395ac3f10d42263cbe66c665db2a4a4d4a0f5b": "e702d9bcd0393f171b4398a5dc666dd72713516af35876c4db5173a713bd3565",
    "bb0ac1964233e8582355cf40bdf36328370e6d30fd294b9271b28444b6b52958": "5ba184fa3fa9d3daa40f2fd230a333b9445fd3124083b71bfcbb5182a0c0c2d3",
}


def _check_traced(panels, pinned):
    """Run ``panels``' configs traced and compare digests, trace included;
    each run must also pass the strict audit, trace identities included."""
    configs = [
        config.replace(trace=True)
        for config in harvest_configs(panels)
    ]
    assert {config_cache_key(config) for config in configs} == set(pinned)
    mismatches, audit_failures = [], []
    for config in configs:
        key, experiment, digest = golden_run(config)
        if digest != pinned[key]:
            mismatches.append((key, pinned[key], digest))
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


def test_traced_result_digests_are_byte_identical():
    """The traced bulk configs: digests, trace included, and strict audit."""
    _check_traced(TRACED_PANELS, TRACED_DIGESTS)


def test_traced_lossy_result_digests_are_byte_identical():
    """The traced fig9a configs, whose links drop and ECN-mark frames:
    digests, trace included, and strict audit."""
    _check_traced(TRACED_LOSSY_PANELS, TRACED_LOSSY_DIGESTS)
