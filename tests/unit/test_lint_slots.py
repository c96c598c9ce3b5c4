"""Slots-discipline checker: fast-constructor completeness, stray writes."""

from repro.analysis.checkers import slots
from repro.analysis.project import Project


def findings_for(sources):
    return slots.check(Project.from_sources(sources))


FRAME_CLASS = """\
class Frame:
    __slots__ = ("flow_id", "seq", "payload")

    def __init__(self, flow_id, seq, payload):
        self.flow_id = flow_id
        self.seq = seq
        self.payload = payload
"""


def test_complete_fast_construction_is_clean():
    source = FRAME_CLASS + """\

def build():
    frame = Frame.__new__(Frame)
    frame.flow_id = 1
    frame.seq = 2
    frame.payload = 3
    return frame
"""
    assert findings_for({"kernel/frame.py": source}) == []


def test_incomplete_fast_construction_lists_missing_slots():
    source = FRAME_CLASS + """\

def build():
    frame = Frame.__new__(Frame)
    frame.flow_id = 1
    frame.seq = 2
    return frame
"""
    findings = findings_for({"kernel/frame.py": source})
    assert [(f.rule, f.symbol, f.line) for f in findings] == [
        ("slots-incomplete-new", "build", 10)
    ]
    assert "payload" in findings[0].message


def test_hoisted_alias_fast_construction():
    source = FRAME_CLASS + """\

def build_many(n):
    frame_new = Frame.__new__
    out = []
    for _ in range(n):
        frame = frame_new(Frame)
        frame.flow_id = 1
        frame.seq = 2
        out.append(frame)
    return out
"""
    findings = findings_for({"kernel/frame.py": source})
    assert [(f.rule, f.line) for f in findings] == [("slots-incomplete-new", 13)]
    assert "payload" in findings[0].message


def test_stray_write_through_constructed_local():
    source = FRAME_CLASS + """\

def build():
    frame = Frame(1, 2, 3)
    frame.paylaod = 9
    return frame
"""
    findings = findings_for({"kernel/frame.py": source})
    assert [(f.rule, f.line) for f in findings] == [("slots-stray-write", 11)]
    assert "paylaod" in findings[0].message


def test_stray_write_through_annotated_parameter():
    source = FRAME_CLASS + """\

def retag(frame: Frame):
    frame.tag = "x"
"""
    findings = findings_for({"kernel/frame.py": source})
    assert [f.rule for f in findings] == ["slots-stray-write"]


def test_stray_write_through_self_in_method():
    source = """\
class Frame:
    __slots__ = ("flow_id",)

    def __init__(self, flow_id):
        self.flow_id = flow_id

    def poke(self):
        self.scratch = 1
"""
    findings = findings_for({"kernel/frame.py": source})
    assert [(f.rule, f.symbol) for f in findings] == [
        ("slots-stray-write", "Frame.poke")
    ]


def test_init_may_write_any_declared_slot():
    assert findings_for({"kernel/frame.py": FRAME_CLASS}) == []


def test_valid_slot_write_in_method_is_fine():
    source = """\
class Frame:
    __slots__ = ("flow_id",)

    def __init__(self, flow_id):
        self.flow_id = flow_id

    def retag(self, flow_id):
        self.flow_id = flow_id
"""
    assert findings_for({"kernel/frame.py": source}) == []


def test_unslotted_classes_are_ignored():
    source = """\
class Bag:
    def __init__(self):
        self.anything = 1

def build():
    bag = Bag()
    bag.whatever = 2
    return bag
"""
    assert findings_for({"kernel/bag.py": source}) == []


def test_real_tree_is_clean_modulo_pragma():
    # The only accepted finding (gro.py's lazily-stamped trace_ns) is
    # suppressed by an inline pragma at the site.
    from repro.analysis.lint import run_lint

    report = run_lint(Project.from_dir())
    slot_rules = {"slots-incomplete-new", "slots-stray-write"}
    assert [f for f in report.findings if f.rule in slot_rules] == []
    pragma_slots = [
        f for f in report.pragma_suppressed if f.rule in slot_rules
    ]
    assert [f.path for f in pragma_slots] == ["src/repro/kernel/gro.py"]
    assert "trace_ns" in pragma_slots[0].message
