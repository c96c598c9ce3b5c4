"""repro lint against the real tree: a clean tree, and regression traps.

The second half mutates real source files (in memory, never on disk) into
the shapes of bugs each checker exists to prevent, and asserts the mutation
is caught as a NEW finding — i.e. one no pragma allows. This is the proof
that the gate would have fired on the historical bug, not merely that the
checker runs.
"""

from pathlib import Path

from repro.analysis.lint import run_lint
from repro.analysis.project import Project

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def load_tree_sources() -> dict:
    return {
        path.relative_to(SRC).as_posix(): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
    }


def run_on(sources: dict):
    return run_lint(Project.from_sources(sources))


class TestCleanTree:
    def test_tree_is_lint_clean(self):
        report = run_lint()
        assert report.syntax_errors == []
        assert [f.render() for f in report.findings] == []
        assert report.exit_code == 0


class TestHistoricalBugShapes:
    def test_wallclock_in_engine_is_caught(self):
        sources = load_tree_sources()
        sources["sim/engine.py"] += (
            "\n\nimport time\n\n"
            "def _drift_stamp():\n"
            "    return time.time()\n"
        )
        report = run_on(sources)
        new = [
            f
            for f in report.findings
            if f.rule == "det-wallclock" and f.path == "src/repro/sim/engine.py"
        ]
        assert [f.symbol for f in new] == ["_drift_stamp"]
        assert report.exit_code == 1

    def test_dropped_slot_assignment_in_frame_fast_path_is_caught(self):
        sources = load_tree_sources()
        target = "            frame.trace_ns = None\n"
        assert target in sources["kernel/tcp/sender.py"]
        sources["kernel/tcp/sender.py"] = sources["kernel/tcp/sender.py"].replace(
            target, "", 1
        )
        report = run_on(sources)
        new = [
            f
            for f in report.findings
            if f.rule == "slots-incomplete-new"
            and f.path == "src/repro/kernel/tcp/sender.py"
        ]
        assert len(new) == 1
        assert "trace_ns" in new[0].message
        assert report.exit_code == 1

    def test_unsorted_glob_in_cache_is_caught(self):
        sources = load_tree_sources()
        target = 'candidates = sorted(directory.glob("*.tmp.*"))'
        assert target in sources["core/cache.py"]
        sources["core/cache.py"] = sources["core/cache.py"].replace(
            target, 'candidates = list(directory.glob("*.tmp.*"))'
        )
        report = run_on(sources)
        new = [f for f in report.findings if f.rule == "det-fs-order"]
        assert [f.path for f in new] == ["src/repro/core/cache.py"]
        assert report.exit_code == 1


class TestCliGate:
    def test_lint_subcommand_exit_codes(self, capsys):
        from repro.cli import main

        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 new" in out
