"""Source loading and shared AST plumbing for ``repro lint``.

A :class:`Project` is the parsed view of the ``src/repro`` package (or, in
tests, of an in-memory dict of fixture sources): one :class:`SourceFile` per
module, each carrying its AST, raw lines, per-line suppression pragmas, and
an import map resolving local names back to dotted module paths.

Inline suppression
------------------
A finding is suppressed at its site with::

    something_noisy()  # repro-lint: allow[det-wallclock] why this is fine

or, for lines too long to share, as a standalone comment immediately above
the offending line. Several rules may share one pragma:
``allow[det-wallclock,det-fs-order]``. The justification text is mandatory
by convention (the pragma regex tolerates its absence, the review process
should not).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: Inline suppression pragma. Group 1: comma-separated rule ids.
_PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*allow\[([A-Za-z0-9_,\s\-]+)\]")


class SourceFile:
    """One parsed module of the linted tree."""

    def __init__(self, path: str, relpath: str, source: str) -> None:
        #: Repo-relative posix path used in findings ("src/repro/sim/engine.py").
        self.path = path
        #: Package-relative posix path used for allowlists ("sim/engine.py").
        self.relpath = relpath
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree: Optional[ast.Module] = ast.parse(source, filename=path)
        except SyntaxError as exc:  # surfaced as a lint finding by the driver
            self.tree = None
            self.syntax_error = exc
        self._allow: Dict[int, Set[str]] = self._scan_pragmas()
        self._imports: Optional[Dict[str, str]] = None

    # ------------------------------------------------------------ suppression

    def _scan_pragmas(self) -> Dict[int, Set[str]]:
        """Map line number -> rule ids allowed there.

        A pragma on a code line covers that line; a pragma on a
        standalone comment line covers the next line as well (chained, so a
        block of comment lines covers the first code line after it).
        """
        allow: Dict[int, Set[str]] = {}
        for lineno, text in enumerate(self.lines, start=1):
            match = _PRAGMA_RE.search(text)
            if not match:
                continue
            rules = {rule.strip() for rule in match.group(1).split(",") if rule.strip()}
            allow.setdefault(lineno, set()).update(rules)
            if text.lstrip().startswith("#"):  # standalone: covers the next line
                allow.setdefault(lineno + 1, set()).update(rules)
        # Chain standalone-comment runs downward onto the first code line.
        for lineno in sorted(allow):
            text = self.lines[lineno - 1] if lineno <= len(self.lines) else ""
            if text.lstrip().startswith("#") and not _PRAGMA_RE.search(text):
                allow.setdefault(lineno + 1, set()).update(allow[lineno])
        return allow

    def allowed_rules(self, lineno: int) -> Set[str]:
        return self._allow.get(lineno, frozenset())

    # ------------------------------------------------------------ import map

    @property
    def imports(self) -> Dict[str, str]:
        """Local name -> dotted origin, e.g. ``{"np": "numpy",
        "perf_counter": "time.perf_counter"}``. Relative imports keep their
        leading dots (``from ..sim.engine import Event`` ->
        ``{"Event": "..sim.engine.Event"}``)."""
        if self._imports is None:
            table: Dict[str, str] = {}
            if self.tree is not None:
                for node in ast.walk(self.tree):
                    if isinstance(node, ast.Import):
                        for alias in node.names:
                            table[alias.asname or alias.name.split(".")[0]] = (
                                alias.name
                            )
                    elif isinstance(node, ast.ImportFrom):
                        prefix = "." * node.level + (node.module or "")
                        for alias in node.names:
                            table[alias.asname or alias.name] = (
                                f"{prefix}.{alias.name}" if prefix else alias.name
                            )
            self._imports = table
        return self._imports

    def resolve_call_target(self, func: ast.expr) -> Optional[str]:
        """Dotted origin of a call's ``func`` node, or None.

        ``time.perf_counter()`` -> "time.perf_counter" (via the import map),
        ``perf_counter()`` after ``from time import perf_counter`` -> same.
        Attribute chains rooted at non-imported names resolve to None.
        """
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        origin = self.imports.get(node.id)
        if origin is None:
            return None
        parts.append(origin)
        return ".".join(reversed(parts))


class Project:
    """The set of modules ``repro lint`` analyses, parsed once."""

    #: Path prefix stitched in front of package-relative paths in findings.
    PKG_PREFIX = "src/repro"

    def __init__(self, files: List[SourceFile]) -> None:
        self.files = sorted(files, key=lambda f: f.relpath)
        self._by_relpath = {f.relpath: f for f in self.files}

    @classmethod
    def from_dir(cls, package_dir: Optional[Path] = None) -> "Project":
        """Load every ``*.py`` under the repro package directory."""
        if package_dir is None:
            package_dir = Path(__file__).resolve().parents[1]
        package_dir = Path(package_dir)
        files = []
        for path in sorted(package_dir.rglob("*.py")):
            relpath = path.relative_to(package_dir).as_posix()
            files.append(
                SourceFile(
                    f"{cls.PKG_PREFIX}/{relpath}", relpath, path.read_text()
                )
            )
        return cls(files)

    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "Project":
        """Build a project from ``{package-relative path: source}`` (tests)."""
        return cls(
            [
                SourceFile(f"{cls.PKG_PREFIX}/{relpath}", relpath, source)
                for relpath, source in sources.items()
            ]
        )

    def file(self, relpath: str) -> Optional[SourceFile]:
        return self._by_relpath.get(relpath)

    def file_by_path(self, path: str) -> Optional[SourceFile]:
        """Lookup by the repo-relative path stamped into findings."""
        prefix = f"{self.PKG_PREFIX}/"
        if path.startswith(prefix):
            return self._by_relpath.get(path[len(prefix):])
        return None

    def __iter__(self) -> Iterable[SourceFile]:
        return iter(self.files)


class ScopeVisitor(ast.NodeVisitor):
    """NodeVisitor that tracks the enclosing class/function qualname.

    Checkers subclass this and read :attr:`qualname` while visiting to stamp
    findings with their enclosing symbol. Subclasses overriding the class or
    function visitors must call ``self.generic_visit_scoped(node)`` (or the
    base implementation) to keep the stack balanced.
    """

    def __init__(self) -> None:
        self._scope: List[str] = []

    @property
    def qualname(self) -> str:
        return ".".join(self._scope) if self._scope else "<module>"

    def generic_visit_scoped(self, node: ast.AST, name: str) -> None:
        self._scope.append(name)
        try:
            self.generic_visit(node)
        finally:
            self._scope.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.generic_visit_scoped(node, node.name)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.generic_visit_scoped(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.generic_visit_scoped(node, node.name)


def const_str_elements(node: ast.expr) -> Optional[List[Tuple[str, int]]]:
    """``(value, lineno)`` pairs of a literal collection of strings.

    Understands set/tuple/list literals and ``frozenset({...})`` /
    ``frozenset((...))`` / ``set([...])`` / empty ``frozenset()`` calls.
    Returns None when the node is not such a literal (or holds non-string
    elements).
    """
    if isinstance(node, ast.Call):
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("frozenset", "set")
            and len(node.args) <= 1
            and not node.keywords
        ):
            return const_str_elements(node.args[0]) if node.args else []
        return None
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        out = []
        for element in node.elts:
            if not (
                isinstance(element, ast.Constant) and isinstance(element.value, str)
            ):
                return None
            out.append((element.value, element.lineno))
        return out
    return None
