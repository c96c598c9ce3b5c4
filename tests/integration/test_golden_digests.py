"""Golden-digest regression test: the simulator's observable behaviour.

Compares every unique figure-experiment config against the committed
reference in ``tests/golden/figure_digests.json``. Each entry is keyed by the
identity (``config_cache_key``) of the full-window config, so the pinned keys
must be exactly those of the configs the panels submit today; adding or
removing a config field moves every key, and the entries are then re-keyed
with their digests untouched. A code edit does not move the identities: the
result cache tells code versions apart by its directory, not by the key. The SHA-256 digest of the canonical ``result_to_dict``
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
from repro.core.cache import config_cache_key
from repro.figures.base import harvest_configs
from repro.golden import GOLDEN_DURATION_NS, GOLDEN_WARMUP_NS, golden_run

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" / "figure_digests.json"


@pytest.fixture(scope="module")
def golden_document():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def test_golden_file_matches_current_schema(golden_document):
    """The pinned digests were taken at today's golden windows."""
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

#: Identity of each full-window traced config -> digest of its shortened
#: (golden-window) run, trace payload included.
TRACED_DIGESTS = {
    "97abdbc66bd1da92dc527cf32fedecbd23914cb296aafa8e04ea1bedea85f544": "47a4d36e89adbf70f4a520658facf6aedbcc6d0f19056637a866e8d2ddf83a2c",
    "859eb575973a065b364fea3ea9bd0987cd0684950f34f8989e76496f6910ab97": "e48e69ca41c3ca6e79d82cd3900b141ab3e9fda1034d43f1d5b7fbb97efff598",
    "404e25a2a42dbe872547e55f6f1530d8f78fb91cc88710c22849ffeb510c29c0": "12e010347f66288299c2d06f83225debda65295f8d60b1dc2adb1ffbd2aaf022",
    "e32f809158505b74b74c99b14063152f329d5b60b470fb637421141ea2d46504": "10a416c2de12ebfedd7fdb6a4069948e59e3e4fe382a14b8026d01a484b9d096",
    "41c03c1c890dd5e4011f41a98f8108378a57f2e25776985326bb708b86572d19": "47a4d36e89adbf70f4a520658facf6aedbcc6d0f19056637a866e8d2ddf83a2c",
    "452a1ebb194147608a1450b92d73c2334140fc524ac80bd239b35bd95da17c66": "e48e69ca41c3ca6e79d82cd3900b141ab3e9fda1034d43f1d5b7fbb97efff598",
    "2e47c2377a2804574ca33e3184c100f27b8dbbe9c36b0204cb48ffc8ab828f47": "12e010347f66288299c2d06f83225debda65295f8d60b1dc2adb1ffbd2aaf022",
    "982ff6c4e7fcc0a6db29fe50d5068f30494d178a5c3509f6f4d3155c3f357842": "4e57ad97117ed0713ffa1ddb59948a21081a4c3c54629ca21d09e95e057bbb45",
    "b44272819ba5e8e61ae09445ad69265457bd6129b85c6e072244b87dff7c9188": "62d630046777023815940677252b12eaa33feaff35095a48b4e99272b906ed8c",
    "a29bd0e2806fab88af757ffcddefe0f867b939b31c11d8890bc30715eca02a25": "d422a3b6a5b18b118a30cc7ec4102a7484a8bd888874a5b61d2a703378c35354",
    "0747edc53fc068ec069986fb5968f823d0fa653524d2073c1e9e73bf3ef08901": "eb472956900ea33635463678a56319828850d55d949226324251183ab6a76793",
    "9127b9ad11fbb9a74071182954b40ea5f9c4400128c67a7b9f01ad13bf703272": "34269d7b2582cb88a6ea96940d5a322011e434765cb071d9ac8ff80d9ad98817",
}


#: fig9a with tracing on: a switched link with random loss (0 to 1.5e-2)
#: and ECN marking, so dropped and marked frames cross the traced wire path.
TRACED_LOSSY_PANELS = ("fig9a",)

TRACED_LOSSY_DIGESTS = {
    "158c3fe566230cd65beb8f2d8c90f98e83bbc3d5e424fe42881ead282465d76a": "b38e898ba6c734671fc7569b1bbc4110737e774b7b220bf233d09b8820ab2dd3",
    "5d99b301d6e3bfd0b852b003b5557750e5b02dfe3d375272e09372a7e9816c89": "b38e898ba6c734671fc7569b1bbc4110737e774b7b220bf233d09b8820ab2dd3",
    "289d7a86932040338812d16fa7f683fa98a117c4fd52f54a4227262fcc279ed7": "e702d9bcd0393f171b4398a5dc666dd72713516af35876c4db5173a713bd3565",
    "f7936230c7165456c4d5baeb94d5558503dd5438fa8bb50aee350708319d17f2": "5ba184fa3fa9d3daa40f2fd230a333b9445fd3124083b71bfcbb5182a0c0c2d3",
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
