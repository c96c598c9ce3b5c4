"""Framework-level tests for repro lint: findings, pragmas, driver."""

import json

from repro.analysis.findings import Finding
from repro.analysis.lint import LintReport, render_json, render_text, run_lint
from repro.analysis.project import Project, SourceFile, const_str_elements


def make_finding(**overrides):
    base = dict(
        path="src/repro/sim/engine.py",
        line=10,
        rule="det-wallclock",
        symbol="Engine.run",
        message="wall-clock call time.time()",
        rationale="why",
        checker="determinism",
    )
    base.update(overrides)
    return Finding(**base)


class TestFinding:
    def test_render_includes_location_rule_symbol(self):
        text = make_finding().render()
        assert "src/repro/sim/engine.py:10" in text
        assert "[det-wallclock]" in text
        assert "Engine.run" in text

    def test_render_omits_module_symbol(self):
        text = make_finding(symbol="<module>").render()
        assert "<module>" not in text

    def test_ordering_is_stable(self):
        findings = [make_finding(line=5), make_finding(line=1)]
        assert sorted(findings)[0].line == 1


class TestPragmas:
    def test_same_line_pragma(self):
        f = SourceFile(
            "src/repro/x.py",
            "x.py",
            "import time\nnow = time.time()  # repro-lint: allow[det-wallclock] ok\n",
        )
        assert "det-wallclock" in f.allowed_rules(2)
        assert f.allowed_rules(1) == frozenset()

    def test_standalone_comment_covers_next_line(self):
        f = SourceFile(
            "src/repro/x.py",
            "x.py",
            "# repro-lint: allow[det-wallclock] justified\nnow = 1\n",
        )
        assert "det-wallclock" in f.allowed_rules(2)

    def test_multiple_rules_one_pragma(self):
        f = SourceFile(
            "src/repro/x.py",
            "x.py",
            "y = 0  # repro-lint: allow[det-wallclock, det-fs-order]\n",
        )
        assert f.allowed_rules(1) == {"det-wallclock", "det-fs-order"}

    def test_no_pragma_no_allowance(self):
        f = SourceFile("src/repro/x.py", "x.py", "x = 1\n")
        assert f.allowed_rules(1) == frozenset()


class TestProject:
    def test_from_sources_and_lookup(self):
        project = Project.from_sources({"sim/engine.py": "x = 1\n"})
        assert project.file("sim/engine.py") is not None
        assert project.file_by_path("src/repro/sim/engine.py") is not None
        assert project.file_by_path("elsewhere/sim/engine.py") is None

    def test_syntax_error_is_captured_not_raised(self):
        project = Project.from_sources({"bad.py": "def broken(:\n"})
        file = project.file("bad.py")
        assert file.tree is None
        assert file.syntax_error is not None

    def test_import_map_resolution(self):
        f = SourceFile(
            "src/repro/x.py",
            "x.py",
            "import numpy as np\nfrom time import perf_counter\n",
        )
        assert f.imports["np"] == "numpy"
        assert f.imports["perf_counter"] == "time.perf_counter"

    def test_const_str_elements_forms(self):
        import ast

        for source in (
            "frozenset({'a', 'b'})",
            "{'a', 'b'}",
            "('a', 'b')",
            "['a', 'b']",
        ):
            node = ast.parse(source, mode="eval").body
            values = {name for name, _ in const_str_elements(node)}
            assert values == {"a", "b"}, source
        non_literal = ast.parse("frozenset(x)", mode="eval").body
        assert const_str_elements(non_literal) is None


class TestDriver:
    def test_exit_codes(self):
        clean = LintReport()
        assert clean.exit_code == 0
        dirty = LintReport()
        dirty.findings.append(make_finding())
        assert dirty.exit_code == 1
        broken = LintReport(syntax_errors=["src/repro/bad.py: boom"])
        assert broken.exit_code == 2

    def test_pragma_suppression_applied_by_driver(self):
        project = Project.from_sources(
            {
                "sim/clock.py": (
                    "import time\n"
                    "def f():\n"
                    "    return time.time()  # repro-lint: allow[det-wallclock] tested\n"
                )
            }
        )
        report = run_lint(project)
        assert report.findings == []
        assert [f.rule for f in report.pragma_suppressed] == ["det-wallclock"]

    def test_render_text_and_json(self):
        project = Project.from_sources(
            {"sim/clock.py": "import time\ndef f():\n    return time.time()\n"}
        )
        report = run_lint(project)
        text = render_text(report)
        assert "det-wallclock" in text
        assert "1 new" in text
        payload = json.loads(render_json(report))
        assert payload["exit_code"] == 1
        assert payload["new"][0]["rule"] == "det-wallclock"
