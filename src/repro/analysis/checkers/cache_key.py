"""Checker 2 — cache-key completeness: every ``ExperimentConfig`` field is
either part of the content-addressed cache key or declared excluded.

The persistent result cache (``core/cache.py``) keys entries by a hash of
``ExperimentConfig.to_canonical_dict()``. A field that affects simulation
output but is silently dropped from the key poisons the cache (stale hits);
a field excluded *implicitly* is tribal knowledge. The contract this checker
proves, against the real source:

* ``config.py`` declares ``CACHE_KEY_EXCLUDED``, a literal frozenset of
  field names, and ``_canonicalize`` (the single place the key's field set
  is decided) actually consults it.
* A field is dropped from the key **iff** both declaration sites agree:
  its name is in ``CACHE_KEY_EXCLUDED`` *and* the field carries the
  ``metadata={"cache_key": False}`` marker at its definition. One without
  the other — the historical shape of this bug — is a finding.
* Every name in ``CACHE_KEY_EXCLUDED`` is a real field (no stale entries).

Rules: ``key-marked-not-declared``, ``key-declared-not-marked``,
``key-unknown-field``, ``key-not-enforced``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from ..findings import Finding
from ..project import Project, const_str_elements

CHECKER_ID = "cache-key"

CONFIG_RELPATH = "config.py"
CONFIG_CLASS = "ExperimentConfig"
EXCLUDED_NAME = "CACHE_KEY_EXCLUDED"
CANONICALIZE_FUNC = "_canonicalize"

RATIONALES = {
    "key-marked-not-declared": "a field marked cache_key=False but absent "
    "from CACHE_KEY_EXCLUDED is dropped from the key only by convention; "
    "the declarative set is the audited contract",
    "key-declared-not-marked": "a CACHE_KEY_EXCLUDED entry whose field "
    "lacks the metadata marker hides the exclusion from the field's "
    "definition site",
    "key-unknown-field": "stale CACHE_KEY_EXCLUDED entries mask typos: a "
    "misspelled exclusion silently keeps the field in the key (or keeps a "
    "removed field's name forever)",
    "key-not-enforced": "the canonical-dict builder must consult "
    "CACHE_KEY_EXCLUDED, otherwise the declaration is decorative and the "
    "cache key drifts from it",
}


def _field_metadata_excluded(node: ast.expr) -> bool:
    """Does a field default value carry ``metadata={'cache_key': False}``?"""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "field"
    ):
        return False
    for keyword in node.keywords:
        if keyword.arg != "metadata" or not isinstance(keyword.value, ast.Dict):
            continue
        for key, value in zip(keyword.value.keys, keyword.value.values):
            if (
                isinstance(key, ast.Constant)
                and key.value == "cache_key"
                and isinstance(value, ast.Constant)
                and value.value is False
            ):
                return True
    return False


def _config_fields(class_node: ast.ClassDef) -> Dict[str, Tuple[int, bool]]:
    """``{field name: (lineno, metadata-excluded?)}`` for the dataclass body."""
    fields: Dict[str, Tuple[int, bool]] = {}
    for statement in class_node.body:
        if isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            excluded = statement.value is not None and _field_metadata_excluded(
                statement.value
            )
            fields[statement.target.id] = (statement.lineno, excluded)
    return fields


def check(project: Project) -> List[Finding]:
    file = project.file(CONFIG_RELPATH)
    if file is None or file.tree is None:
        return []  # nothing to check in fixture projects without a config

    def finding(line: int, rule: str, symbol: str, message: str) -> Finding:
        return Finding(
            path=file.path,
            line=line,
            rule=rule,
            symbol=symbol,
            message=message,
            rationale=RATIONALES[rule],
            checker=CHECKER_ID,
        )

    class_node: Optional[ast.ClassDef] = None
    excluded_node: Optional[ast.Assign] = None
    canonicalize: Optional[ast.FunctionDef] = None
    for node in file.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == CONFIG_CLASS:
            class_node = node
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == EXCLUDED_NAME for t in node.targets
        ):
            excluded_node = node
        elif isinstance(node, ast.FunctionDef) and node.name == CANONICALIZE_FUNC:
            canonicalize = node

    findings: List[Finding] = []
    if class_node is None:
        return findings  # fixture without the class: out of scope

    if excluded_node is None:
        findings.append(
            finding(
                1,
                "key-not-enforced",
                "<module>",
                f"{EXCLUDED_NAME} is not declared in {CONFIG_RELPATH}",
            )
        )
        declared: List[Tuple[str, int]] = []
    else:
        declared = const_str_elements(excluded_node.value) or []
        if const_str_elements(excluded_node.value) is None:
            findings.append(
                finding(
                    excluded_node.lineno,
                    "key-not-enforced",
                    "<module>",
                    f"{EXCLUDED_NAME} must be a literal frozenset/tuple of "
                    "field-name strings so it is statically checkable",
                )
            )

    fields = _config_fields(class_node)
    declared_names = {name for name, _ in declared}

    for name, line in declared:
        if name not in fields:
            findings.append(
                finding(
                    line,
                    "key-unknown-field",
                    "<module>",
                    f"{EXCLUDED_NAME} names {name!r}, which is not a field "
                    f"of {CONFIG_CLASS}",
                )
            )
        elif not fields[name][1]:
            findings.append(
                finding(
                    fields[name][0],
                    "key-declared-not-marked",
                    CONFIG_CLASS,
                    f"field {name!r} is in {EXCLUDED_NAME} but its definition "
                    "lacks metadata={'cache_key': False}",
                )
            )

    for name, (line, marked) in fields.items():
        if marked and name not in declared_names:
            findings.append(
                finding(
                    line,
                    "key-marked-not-declared",
                    CONFIG_CLASS,
                    f"field {name!r} is marked cache_key=False but missing "
                    f"from {EXCLUDED_NAME}",
                )
            )

    if excluded_node is not None:
        if canonicalize is None or not any(
            isinstance(sub, ast.Name) and sub.id == EXCLUDED_NAME
            for sub in ast.walk(canonicalize)
        ):
            findings.append(
                finding(
                    canonicalize.lineno if canonicalize is not None else 1,
                    "key-not-enforced",
                    CANONICALIZE_FUNC if canonicalize is not None else "<module>",
                    f"{CANONICALIZE_FUNC} does not consult {EXCLUDED_NAME}; "
                    "the declared exclusions cannot be reaching the cache key",
                )
            )
    return findings
