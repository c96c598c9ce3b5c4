"""Checker 1 — determinism: no ambient-nondeterminism sources in the tree.

Every result this reproduction publishes is a pure function of its
``ExperimentConfig`` (golden digests and the runner's byte-identity
guarantees depend on it). This checker forbids, at the AST level, the ways
that property has historically been broken in simulators:

``det-wallclock``
    ``time.time()``/``perf_counter()``/``monotonic()``/``datetime.now()``
    and friends — wall-clock reads leaking into logic. Virtual time is
    ``engine.now``. Timing harnesses (``bench.py``) are allowlisted.
``det-urandom``
    ``os.urandom``, ``uuid.uuid1/uuid4``, ``secrets.*`` — OS entropy.
``det-global-random``
    Draws from the process-global ``random`` module (``random.random()``,
    ``from random import randint`` ...). All randomness must flow through a
    seeded ``random.Random`` instance (``sim/rng.py`` streams).
``det-unseeded-rng``
    ``random.Random()`` / ``numpy.random.default_rng()`` with no seed, and
    any use of the global ``numpy.random.*`` functions.
``det-id-order``
    ``id()`` used as a sort key or in an ordering comparison — CPython heap
    addresses vary run to run.
``det-set-iter``
    Iterating a ``set``/``frozenset`` (or materializing one with
    ``list``/``tuple``) in a simulation-path module: set iteration order
    depends on insertion history and hash seeds for str-keyed sets. Wrap in
    ``sorted(...)`` or use a list/dict. Applies only under
    :data:`SIM_PATH_PREFIXES` — analysis/CLI/reporting code may iterate
    sets where order cannot reach results.
``det-fs-order``
    ``glob``/``rglob``/``iterdir``/``os.listdir``/``os.scandir`` iterated
    without ``sorted(...)`` — directory order is filesystem-dependent.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from ..findings import Finding
from ..project import Project, ScopeVisitor, SourceFile

CHECKER_ID = "determinism"

#: Package-relative prefixes where results are computed: the set-iteration
#: rule applies only here (iteration order can reach simulated behaviour).
SIM_PATH_PREFIXES = (
    "sim/",
    "hardware/",
    "kernel/",
    "workloads/",
    "costs/",
    "core/",
    "trace.py",
    "golden.py",
)

#: Package-relative files exempt from the wall-clock rule: dedicated timing
#: harnesses whose whole point is reading the host clock.
WALLCLOCK_ALLOW_FILES = frozenset({"bench.py"})

_WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_ENTROPY_CALLS = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})

#: Rationale strings, one per rule (rendered once per rule by the driver).
RATIONALES = {
    "det-wallclock": "results must be a pure function of the config; "
    "wall-clock reads vary run to run (use engine virtual time)",
    "det-urandom": "OS entropy makes runs unrepeatable",
    "det-global-random": "the process-global random module is shared, "
    "unseeded state; draw from a seeded sim/rng.py stream",
    "det-unseeded-rng": "an RNG constructed without a seed derives its "
    "state from OS entropy",
    "det-id-order": "id() is a heap address; orderings built on it differ "
    "across runs and interpreters",
    "det-set-iter": "set iteration order depends on insertion history and "
    "per-process hash seeds; sort or use a list/dict on the sim path",
    "det-fs-order": "directory listing order is filesystem-dependent; "
    "wrap in sorted(...)",
}


def _call_name(file: SourceFile, node: ast.Call) -> Optional[str]:
    return file.resolve_call_target(node.func)


class _SetTracker:
    """Statically-known set values within one file.

    Knows three shapes: set literals and constructor calls, local names
    assigned one anywhere in their function, and ``self.X`` attributes
    assigned one anywhere in their class.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.local_sets: Dict[ast.AST, Set[str]] = {}  # function node -> names
        self.attr_sets: Dict[str, Set[str]] = {}       # class name -> attrs
        self.module_sets: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names: Set[str] = set()
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Assign) and self.is_set_expr(sub.value):
                        for target in sub.targets:
                            if isinstance(target, ast.Name):
                                names.add(target.id)
                    elif (
                        isinstance(sub, ast.AnnAssign)
                        and sub.value is not None
                        and self.is_set_expr(sub.value)
                        and isinstance(sub.target, ast.Name)
                    ):
                        names.add(sub.target.id)
                self.local_sets[node] = names
            elif isinstance(node, ast.ClassDef):
                attrs: Set[str] = set()
                for sub in ast.walk(node):
                    value = None
                    if isinstance(sub, ast.Assign):
                        value, targets = sub.value, sub.targets
                    elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                        value, targets = sub.value, [sub.target]
                    else:
                        continue
                    if not self.is_set_expr(value):
                        continue
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            attrs.add(target.attr)
                self.attr_sets[node.name] = attrs
        for node in tree.body:
            if isinstance(node, ast.Assign) and self.is_set_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.module_sets.add(target.id)

    def is_set_expr(self, node: ast.expr) -> bool:
        """Is ``node`` statically known to evaluate to a set?"""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        return False

    def is_known_set(
        self,
        node: ast.expr,
        func: Optional[ast.AST],
        class_name: Optional[str],
    ) -> bool:
        if self.is_set_expr(node):
            return True
        if isinstance(node, ast.Name):
            if func is not None and node.id in self.local_sets.get(func, ()):
                return True
            return node.id in self.module_sets
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and class_name is not None
        ):
            return node.attr in self.attr_sets.get(class_name, ())
        return False


class _DeterminismVisitor(ScopeVisitor):
    def __init__(self, file: SourceFile, sim_path: bool) -> None:
        super().__init__()
        self.file = file
        self.sim_path = sim_path
        self.findings: List[Finding] = []
        self.sets = _SetTracker(file.tree)
        self._func_stack: List[ast.AST] = []
        self._class_stack: List[str] = []
        #: Call nodes appearing directly inside ``sorted(...)`` — exempt from
        #: the fs-order and set-iteration rules.
        self._sorted_args: Set[ast.AST] = set()

    # ------------------------------------------------------------- plumbing

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.file.path,
                line=getattr(node, "lineno", 0),
                rule=rule,
                symbol=self.qualname,
                message=message,
                rationale=RATIONALES[rule],
                checker=CHECKER_ID,
            )
        )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        try:
            self.generic_visit_scoped(node, node.name)
        finally:
            self._class_stack.pop()

    def _visit_func(self, node: ast.AST, name: str) -> None:
        self._func_stack.append(node)
        try:
            self.generic_visit_scoped(node, name)
        finally:
            self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_func(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_func(node, node.name)

    @property
    def _current_func(self) -> Optional[ast.AST]:
        return self._func_stack[-1] if self._func_stack else None

    @property
    def _current_class(self) -> Optional[str]:
        return self._class_stack[-1] if self._class_stack else None

    # ------------------------------------------------------------ call rules

    def visit_Call(self, node: ast.Call) -> None:
        target = _call_name(self.file, node)
        if target is not None:
            self._check_call_target(node, target)
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "sorted" and node.args:
                self._sorted_args.add(node.args[0])
            if func.id in ("sorted", "min", "max"):
                self._check_sort_key(node)
            if func.id in ("list", "tuple") and len(node.args) == 1:
                self._check_set_iteration(node.args[0], node, materialize=True)
        elif isinstance(func, ast.Attribute):
            if func.attr == "sort":
                self._check_sort_key(node)
            if func.attr in ("glob", "rglob", "iterdir") and (
                node not in self._sorted_args
            ):
                self._emit(
                    node,
                    "det-fs-order",
                    f"unsorted filesystem iteration via .{func.attr}()",
                )
        self.generic_visit(node)

    def _check_call_target(self, node: ast.Call, target: str) -> None:
        if target in _WALLCLOCK_CALLS:
            if self.file.relpath not in WALLCLOCK_ALLOW_FILES:
                self._emit(node, "det-wallclock", f"wall-clock call {target}()")
            return
        if target in _ENTROPY_CALLS or target.startswith("secrets."):
            self._emit(node, "det-urandom", f"OS-entropy call {target}()")
            return
        if target in ("os.listdir", "os.scandir", "glob.glob", "glob.iglob"):
            if node not in self._sorted_args:
                self._emit(
                    node, "det-fs-order", f"unsorted filesystem listing {target}()"
                )
            return
        if target == "random.Random":
            if not node.args and not node.keywords:
                self._emit(
                    node, "det-unseeded-rng", "random.Random() constructed unseeded"
                )
            return
        if target == "random.SystemRandom":
            self._emit(node, "det-urandom", "random.SystemRandom() uses OS entropy")
            return
        if target.startswith("random."):
            self._emit(
                node,
                "det-global-random",
                f"draw from the global random module: {target}()",
            )
            return
        if target == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                self._emit(
                    node,
                    "det-unseeded-rng",
                    "numpy.random.default_rng() constructed unseeded",
                )
            return
        if target.startswith("numpy.random."):
            self._emit(
                node,
                "det-unseeded-rng",
                f"global numpy RNG call {target}()",
            )

    # ------------------------------------------------------------- id() rules

    def _is_id_ref(self, node: ast.expr) -> bool:
        """``id`` the builtin (as a reference or wrapped in a lambda)."""
        if isinstance(node, ast.Name) and node.id == "id":
            return node.id not in self.file.imports
        if isinstance(node, ast.Lambda):
            return any(
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"
                for sub in ast.walk(node.body)
            )
        return False

    def _check_sort_key(self, node: ast.Call) -> None:
        for keyword in node.keywords:
            if keyword.arg == "key" and self._is_id_ref(keyword.value):
                self._emit(
                    node, "det-id-order", "id() used as a sort/min/max key"
                )

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops):
            operands = [node.left, *node.comparators]
            for operand in operands:
                if (
                    isinstance(operand, ast.Call)
                    and isinstance(operand.func, ast.Name)
                    and operand.func.id == "id"
                    and operand.func.id not in self.file.imports
                ):
                    self._emit(
                        node, "det-id-order", "id() used in an ordering comparison"
                    )
                    break
        self.generic_visit(node)

    # ------------------------------------------------------- set iteration

    def _check_set_iteration(
        self, iterable: ast.expr, site: ast.AST, materialize: bool = False
    ) -> None:
        if not self.sim_path:
            return
        if iterable in self._sorted_args:
            return
        if self.sets.is_known_set(
            iterable, self._current_func, self._current_class
        ):
            how = "materialized" if materialize else "iterated"
            self._emit(
                site,
                "det-set-iter",
                f"set {how} in unspecified order on the sim path",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node.iter, node)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_set_iteration(node.iter, node)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for generator in node.generators:
            self._check_set_iteration(generator.iter, node)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building a set is fine (order does not escape); only check the
        # sources it iterates.
        self._visit_comprehension(node)


def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for file in project:
        if file.tree is None:
            continue
        sim_path = file.relpath.startswith(SIM_PATH_PREFIXES)
        visitor = _DeterminismVisitor(file, sim_path)
        # Two passes: first collect sorted(...) wrappers so rules firing
        # before their sorted() parent is visited still see the exemption.
        for node in ast.walk(file.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sorted"
                and node.args
            ):
                visitor._sorted_args.add(node.args[0])
        visitor.visit(file.tree)
        findings.extend(visitor.findings)
    return findings
