"""Determinism checker: seeded fixture violations with exact locations."""

from repro.analysis.checkers import determinism
from repro.analysis.project import Project


def findings_for(sources):
    return determinism.check(Project.from_sources(sources))


def rules_at(findings, path_suffix):
    return [(f.rule, f.line) for f in findings if f.path.endswith(path_suffix)]


class TestWallclock:
    def test_time_calls_flagged_with_line(self):
        findings = findings_for(
            {
                "sim/clock.py": (
                    "import time\n"
                    "from time import perf_counter\n"
                    "def f():\n"
                    "    a = time.time()\n"
                    "    b = perf_counter()\n"
                    "    return a + b\n"
                )
            }
        )
        assert rules_at(findings, "sim/clock.py") == [
            ("det-wallclock", 4),
            ("det-wallclock", 5),
        ]

    def test_datetime_now_flagged(self):
        findings = findings_for(
            {"x.py": "import datetime\nstamp = datetime.datetime.now()\n"}
        )
        assert [f.rule for f in findings] == ["det-wallclock"]

    def test_bench_module_is_flagged(self):
        # No module is exempt by name: timing code outside the package uses
        # the host clock freely, code inside it needs a pragma.
        findings = findings_for(
            {"bench.py": "import time\ndef f():\n    return time.perf_counter()\n"}
        )
        assert rules_at(findings, "bench.py") == [("det-wallclock", 3)]

    def test_engine_now_attribute_not_confused(self):
        # engine.now is virtual time, not a wall-clock call.
        findings = findings_for(
            {"sim/x.py": "def f(engine):\n    return engine.now\n"}
        )
        assert findings == []


class TestEntropyAndRandom:
    def test_urandom_uuid_secrets(self):
        findings = findings_for(
            {
                "x.py": (
                    "import os, uuid, secrets\n"
                    "a = os.urandom(8)\n"
                    "b = uuid.uuid4()\n"
                    "c = secrets.token_bytes(8)\n"
                )
            }
        )
        assert [f.rule for f in findings] == ["det-urandom"] * 3

    def test_global_random_module(self):
        findings = findings_for(
            {
                "x.py": (
                    "import random\n"
                    "from random import randint\n"
                    "a = random.random()\n"
                    "b = randint(0, 9)\n"
                )
            }
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("det-global-random", 3),
            ("det-global-random", 4),
        ]

    def test_seeded_random_instance_ok_unseeded_flagged(self):
        findings = findings_for(
            {
                "x.py": (
                    "import random\n"
                    "good = random.Random(42)\n"
                    "bad = random.Random()\n"
                )
            }
        )
        assert [(f.rule, f.line) for f in findings] == [("det-unseeded-rng", 3)]

    def test_numpy_global_rng_and_default_rng(self):
        findings = findings_for(
            {
                "x.py": (
                    "import numpy as np\n"
                    "a = np.random.rand(3)\n"
                    "b = np.random.default_rng()\n"
                    "c = np.random.default_rng(7)\n"
                )
            }
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("det-unseeded-rng", 2),
            ("det-unseeded-rng", 3),
        ]


class TestIdOrdering:
    def test_id_as_sort_key(self):
        findings = findings_for({"x.py": "xs = sorted(items, key=id)\n"})
        assert [f.rule for f in findings] == ["det-id-order"]

    def test_id_in_lambda_key(self):
        findings = findings_for(
            {"x.py": "xs = sorted(items, key=lambda o: (id(o), o))\n"}
        )
        assert [f.rule for f in findings] == ["det-id-order"]

    def test_id_in_ordering_comparison(self):
        findings = findings_for({"x.py": "flag = id(a) < id(b)\n"})
        assert [f.rule for f in findings] == ["det-id-order"]

    def test_id_equality_is_fine(self):
        findings = findings_for({"x.py": "flag = id(a) == id(b)\n"})
        assert findings == []


class TestSetIteration:
    def test_set_iterated_on_sim_path(self):
        # config.py schedules no event, but every result reads it.
        for path in ("kernel/x.py", "config.py"):
            findings = findings_for(
                {
                    path: (
                        "def f():\n"
                        "    pending = {1, 2, 3}\n"
                        "    for item in pending:\n"
                        "        use(item)\n"
                    )
                }
            )
            assert [(f.rule, f.line) for f in findings] == [("det-set-iter", 3)], path

    def test_sorted_set_is_exempt(self):
        findings = findings_for(
            {
                "kernel/x.py": (
                    "def f():\n"
                    "    pending = {1, 2, 3}\n"
                    "    for item in sorted(pending):\n"
                    "        use(item)\n"
                )
            }
        )
        assert findings == []

    def test_self_attribute_set(self):
        findings = findings_for(
            {
                "hardware/x.py": (
                    "class Nic:\n"
                    "    def __init__(self):\n"
                    "        self.active = set()\n"
                    "    def drain(self):\n"
                    "        return [q for q in self.active]\n"
                )
            }
        )
        assert [(f.rule, f.line) for f in findings] == [("det-set-iter", 5)]

    def test_list_materialization_of_set(self):
        findings = findings_for(
            {
                "sim/x.py": (
                    "def f():\n"
                    "    live = frozenset((1, 2))\n"
                    "    return list(live)\n"
                )
            }
        )
        assert [(f.rule, f.line) for f in findings] == [("det-set-iter", 3)]

    def test_non_sim_path_sets_are_fine(self):
        findings = findings_for(
            {
                "figures/x.py": (
                    "def f():\n"
                    "    pending = {1, 2}\n"
                    "    for item in pending:\n"
                    "        use(item)\n"
                )
            }
        )
        assert findings == []

    def test_dict_iteration_is_fine(self):
        findings = findings_for(
            {
                "sim/x.py": (
                    "def f():\n"
                    "    table = {1: 'a'}\n"
                    "    for key in table:\n"
                    "        use(key)\n"
                )
            }
        )
        assert findings == []


class TestFilesystemOrder:
    def test_unsorted_glob_flagged(self):
        findings = findings_for(
            {"x.py": "def f(d):\n    return [p for p in d.glob('*.json')]\n"}
        )
        assert [f.rule for f in findings] == ["det-fs-order"]

    def test_sorted_glob_exempt(self):
        findings = findings_for(
            {"x.py": "def f(d):\n    return sorted(d.glob('*.json'))\n"}
        )
        assert findings == []

    def test_os_listdir(self):
        findings = findings_for(
            {"x.py": "import os\ndef f(d):\n    return os.listdir(d)\n"}
        )
        assert [f.rule for f in findings] == ["det-fs-order"]


class TestRealTreeExpectations:
    def test_rationales_cover_every_rule(self):
        emitted = set()
        for sources in (
            {"x.py": "import time\nt = time.time()\n"},
            {"x.py": "import os\nb = os.urandom(4)\n"},
        ):
            emitted |= {f.rule for f in findings_for(sources)}
        for rule in emitted:
            assert determinism.RATIONALES[rule]
