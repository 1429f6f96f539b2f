"""Static concurrency analysis: per-class lock models and REP010–REP012.

The pass builds a :class:`ClassLockModel` for every class it sees:

* which attributes are locks (``self.X = threading.Lock()`` / ``RLock`` /
  ``Condition``, or the :mod:`repro.locks` ``named_lock`` /
  ``named_rlock`` / ``named_condition`` factories),
* every ``self.*`` attribute access with the set of locks held at that
  point (``with self._lock:`` regions, including multi-item and nested
  ``with`` statements; nested ``def`` / ``lambda`` bodies run deferred,
  so they are scanned with an empty held set),
* blocking operations, internal ``self.method()`` calls, and
  ``self.attr.method()`` calls with their held sets,
* candidate types for plain attributes, inferred from constructor calls
  (``self.store = ModelStore(...)``, including through ``x if c else y``)
  and parameter annotations (``store: ModelStore``, ``Optional[...]``
  unwrapped) — enough to resolve cross-class lock acquisitions.

Three rules consume the model:

* **REP010** — an attribute *written* under a lock anywhere in the class
  is shared state guarded by that lock; any access to it (read or write,
  outside ``__init__``) that holds none of its guarding locks is a race.
  Methods named ``*_locked`` follow the repo convention "caller holds the
  lock": they are exempt, and class-internal call sites donate their held
  sets both to guard inference and to the callee's effective held set.
* **REP011** — a blocking operation (``time.sleep``, ``os.fsync``, file
  I/O via ``open``/``Path.read_*``/``write_*``, ``Future.result()``,
  un-timed ``join()``/``wait()``/``wait_for()``) performed while holding
  a lock stalls every thread queued on that lock.  One level of
  interprocedural resolution: ``self.helper()`` under a lock is flagged
  when the helper's body blocks.
* **REP012** — a project-wide lock-order graph.  Nodes are
  ``ClassName.attr``; edges come from nested acquisitions, one-level
  internal calls, and cross-class ``self.attr.method()`` calls resolved
  through the inferred attribute types, merged with the documented seed
  orderings in :data:`DEFAULT_SEED_EDGES`.  Any cycle is a potential
  deadlock and is reported at the first located edge of the cycle.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..locks import graph_cycles
from .engine import LintContext, ProjectRule, Rule, register_rule
from .violations import Severity, Violation

__all__ = [
    "ClassLockModel",
    "MethodModel",
    "build_class_model",
    "DEFAULT_SEED_EDGES",
    "GuardedAttributeRule",
    "BlockingUnderLockRule",
    "LockOrderRule",
]

#: Call names (last dotted segment) that create a lock attribute, and the
#: kind of primitive they produce.
LOCK_FACTORY_KINDS = {
    "Lock": "lock",
    "RLock": "rlock",
    "Condition": "condition",
    "named_lock": "lock",
    "named_rlock": "rlock",
    "named_condition": "condition",
}

#: Methods whose writes/reads are construction, not shared-state access.
_INIT_METHODS = frozenset({"__init__", "__new__", "__post_init__", "__init_subclass__"})

#: Container methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "insert",
        "remove",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "add",
        "discard",
        "update",
        "setdefault",
        "move_to_end",
        "sort",
        "reverse",
        "rotate",
    }
)

#: Dotted call names that block the calling thread.
_BLOCKING_CALLS = {
    "time.sleep": "time.sleep()",
    "os.fsync": "os.fsync()",
    "open": "open()",
    "io.open": "io.open()",
}

#: Method names that block regardless of receiver type.
_BLOCKING_METHODS = {
    "result": "Future.result()",
    "read_bytes": "read_bytes()",
    "read_text": "read_text()",
    "write_bytes": "write_bytes()",
    "write_text": "write_text()",
}

#: Documented cross-module lock orderings that static inference cannot
#: fully recover (store calls hide behind ``_persist``-style indirection).
#: Each pair means "the left lock may be held while the right is taken".
DEFAULT_SEED_EDGES: Tuple[Tuple[str, str], ...] = (
    # registry.publish/restore: version-allocate -> persist -> commit.
    ("ModelRegistry._publish_lock", "ModelRegistry._lock"),
    ("ModelRegistry._publish_lock", "ModelStore._lock"),
    # router holds its routing lock while touching shard registries and
    # the follower offsets during kill/failover bookkeeping.
    ("ShardRouter._lock", "ModelRegistry._lock"),
    ("ShardRouter._lock", "JournalFollower._lock"),
    ("JournalFollower._lock", "ModelStore._lock"),
    # the engine stop path looks at the queue while tearing down.
    ("PredictionEngine._state_lock", "_BoundedRequestQueue._cond"),
)


@dataclass
class _Access:
    attr: str
    write: bool
    held: FrozenSet[str]
    node: ast.AST


@dataclass
class _BlockingOp:
    desc: str
    held: FrozenSet[str]
    node: ast.AST


@dataclass
class _SelfCall:
    callee: str
    held: FrozenSet[str]
    node: ast.AST


@dataclass
class _AttrCall:
    attr: str
    method: str
    held: FrozenSet[str]
    node: ast.AST


@dataclass
class _Acquisition:
    lock: str
    held_before: FrozenSet[str]
    node: ast.AST


@dataclass
class MethodModel:
    """Everything the rules need to know about one method body."""

    name: str
    accesses: List[_Access] = field(default_factory=list)
    blocking: List[_BlockingOp] = field(default_factory=list)
    self_calls: List[_SelfCall] = field(default_factory=list)
    attr_calls: List[_AttrCall] = field(default_factory=list)
    acquisitions: List[_Acquisition] = field(default_factory=list)


@dataclass
class ClassLockModel:
    """Per-class lock model: lock attrs, method scans, attr type guesses."""

    name: str
    node: ast.ClassDef
    locks: Dict[str, str]
    methods: Dict[str, MethodModel]
    attr_types: Dict[str, Tuple[str, ...]]


def _call_name(func: ast.AST) -> Optional[str]:
    """Dotted name of a call target (``time.sleep``), or None."""
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _lock_kind(value: ast.AST) -> Optional[str]:
    if not isinstance(value, ast.Call):
        return None
    dotted = _call_name(value.func)
    if dotted is None:
        return None
    return LOCK_FACTORY_KINDS.get(dotted.rsplit(".", 1)[-1])


def _self_attr_root(node: ast.AST) -> Optional[str]:
    """The attribute name X for expressions rooted at ``self.X``."""
    while isinstance(node, (ast.Subscript, ast.Starred, ast.Attribute)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        node = node.value
    return None


def _annotation_names(node: Optional[ast.AST]) -> Tuple[str, ...]:
    """Class-name candidates named by a parameter annotation."""
    if node is None:
        return ()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return (node.value.rsplit(".", 1)[-1],)
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        return (node.attr,)
    if isinstance(node, ast.Subscript):
        head = _annotation_names(node.value)
        if head and head[0] in ("Optional", "Union"):
            inner = node.slice
            if isinstance(inner, ast.Tuple):
                out: Tuple[str, ...] = ()
                for elt in inner.elts:
                    out += _annotation_names(elt)
            else:
                out = _annotation_names(inner)
            return tuple(n for n in out if n != "None")
    return ()


def _type_candidates(
    expr: ast.AST, annotations: Dict[str, Optional[ast.AST]]
) -> Tuple[str, ...]:
    """Class-name candidates for the value assigned to an attribute."""
    if isinstance(expr, ast.Call):
        if isinstance(expr.func, ast.Name):
            return (expr.func.id,)
        if isinstance(expr.func, ast.Attribute):
            return (expr.func.attr,)
        return ()
    if isinstance(expr, ast.Name) and expr.id in annotations:
        return _annotation_names(annotations[expr.id])
    if isinstance(expr, ast.IfExp):
        return _type_candidates(expr.body, annotations) + _type_candidates(
            expr.orelse, annotations
        )
    if isinstance(expr, ast.BoolOp):
        out: Tuple[str, ...] = ()
        for value in expr.values:
            out += _type_candidates(value, annotations)
        return out
    return ()


class _MethodScanner(ast.NodeVisitor):
    """One pass over a method body, tracking the held-lock set."""

    def __init__(self, lock_attrs: FrozenSet[str], model: MethodModel):
        self.lock_attrs = lock_attrs
        self.model = model
        self._held: List[str] = []
        # wait_for predicates run with the condition's lock (re)held, not
        # deferred like ordinary lambdas; keyed by lambda node identity.
        self._predicate_locks: Dict[ast.AST, str] = {}

    def _held_set(self) -> FrozenSet[str]:
        return frozenset(self._held)

    def _lock_attr(self, expr: ast.AST) -> Optional[str]:
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in self.lock_attrs
        ):
            return expr.attr
        return None

    # -- lock regions -----------------------------------------------------

    def _visit_with(self, node: ast.AST) -> None:
        acquired: List[str] = []
        for item in node.items:  # type: ignore[attr-defined]
            lock = self._lock_attr(item.context_expr)
            if lock is not None:
                self.model.acquisitions.append(
                    _Acquisition(lock, self._held_set(), item.context_expr)
                )
                acquired.append(lock)
            else:
                self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        self._held.extend(acquired)
        for stmt in node.body:  # type: ignore[attr-defined]
            self.visit(stmt)
        if acquired:
            del self._held[-len(acquired) :]

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    # -- deferred bodies run outside the current lock region ---------------

    def _visit_deferred(self, node: ast.AST) -> None:
        saved, self._held = self._held, []
        self.generic_visit(node)
        self._held = saved

    visit_FunctionDef = _visit_deferred
    visit_AsyncFunctionDef = _visit_deferred

    def visit_Lambda(self, node: ast.Lambda) -> None:
        predicate_lock = self._predicate_locks.pop(node, None)
        if predicate_lock is None:
            self._visit_deferred(node)
            return
        self._held.append(predicate_lock)
        self.generic_visit(node)
        self._held.pop()

    # -- attribute stores --------------------------------------------------

    def _record_store(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_store(elt)
            return
        root = _self_attr_root(target)
        if root is not None and root not in self.lock_attrs:
            self.model.accesses.append(
                _Access(root, True, self._held_set(), target)
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_store(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_store(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_store(target)
        self.generic_visit(node)

    # -- reads -------------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        root = _self_attr_root(node)
        if root is not None and root not in self.lock_attrs:
            write = isinstance(node.ctx, (ast.Store, ast.Del))
            self.model.accesses.append(
                _Access(root, write, self._held_set(), node)
            )
        self.generic_visit(node)

    # -- calls: blocking ops, mutators, call graph --------------------------

    def visit_Call(self, node: ast.Call) -> None:
        held = self._held_set()
        func = node.func
        dotted = _call_name(func)
        if dotted in _BLOCKING_CALLS:
            self.model.blocking.append(
                _BlockingOp(_BLOCKING_CALLS[dotted], held, node)
            )
        elif isinstance(func, ast.Attribute):
            attr = func.attr
            if attr in _BLOCKING_METHODS:
                self.model.blocking.append(
                    _BlockingOp(_BLOCKING_METHODS[attr], held, node)
                )
            elif attr == "join" and not node.args and not node.keywords:
                self.model.blocking.append(
                    _BlockingOp("join() without a timeout", held, node)
                )
            elif attr in ("wait", "wait_for"):
                receiver_lock = self._lock_attr(func.value)
                if (
                    attr == "wait_for"
                    and receiver_lock is not None
                    and node.args
                    and isinstance(node.args[0], ast.Lambda)
                ):
                    self._predicate_locks[node.args[0]] = receiver_lock
                positional_timeout = 1 if attr == "wait" else 2
                timed = len(node.args) >= positional_timeout or any(
                    kw.arg == "timeout" for kw in node.keywords
                )
                if not timed:
                    # Waiting on a condition releases the condition's own
                    # lock but keeps every *other* held lock pinned.
                    receiver = self._lock_attr(func.value)
                    others = held - {receiver} if receiver else held
                    self.model.blocking.append(
                        _BlockingOp(f"un-timed {attr}()", others, node)
                    )
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                self.model.self_calls.append(_SelfCall(func.attr, held, node))
            elif (
                isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "self"
            ):
                self.model.attr_calls.append(
                    _AttrCall(func.value.attr, func.attr, held, node)
                )
            if func.attr in _MUTATOR_METHODS:
                root = _self_attr_root(func.value)
                if root is not None and root not in self.lock_attrs:
                    self.model.accesses.append(_Access(root, True, held, node))
        self.generic_visit(node)


def build_class_model(classdef: ast.ClassDef) -> ClassLockModel:
    """Build the lock model for one class definition."""
    locks: Dict[str, str] = {}
    for node in ast.walk(classdef):
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        else:
            continue
        kind = _lock_kind(value)
        if kind is None:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                locks[target.attr] = kind

    lock_attrs = frozenset(locks)
    methods: Dict[str, MethodModel] = {}
    attr_types: Dict[str, Tuple[str, ...]] = {}
    for stmt in classdef.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = stmt.args
        annotations: Dict[str, Optional[ast.AST]] = {
            a.arg: a.annotation
            for a in (args.posonlyargs + args.args + args.kwonlyargs)
            if a.annotation is not None
        }
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    for cand in _type_candidates(node.value, annotations):
                        existing = attr_types.get(target.attr, ())
                        if cand not in existing:
                            attr_types[target.attr] = existing + (cand,)
        model = MethodModel(stmt.name)
        scanner = _MethodScanner(lock_attrs, model)
        for body_stmt in stmt.body:
            scanner.visit(body_stmt)
        methods[stmt.name] = model

    return ClassLockModel(classdef.name, classdef, locks, methods, attr_types)


def _internal_call_held(model: ClassLockModel) -> Dict[str, FrozenSet[str]]:
    """Union of held-lock sets at class-internal call sites, per callee."""
    out: Dict[str, FrozenSet[str]] = {}
    for method in model.methods.values():
        for call in method.self_calls:
            out[call.callee] = out.get(call.callee, frozenset()) | call.held
    return out


@register_rule
class GuardedAttributeRule(Rule):
    """REP010: guarded attribute accessed without its guarding lock."""

    rule_id = "REP010"
    description = "shared attribute accessed without its guarding lock"
    rationale = (
        "an attribute written under a lock is shared mutable state; any "
        "access that holds none of its guarding locks races with the "
        "guarded writers"
    )
    severity = Severity.ERROR
    node_types = (ast.ClassDef,)
    applies_to_tests = False

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        model = build_class_model(node)
        if not model.locks:
            return
        call_held = _internal_call_held(model)

        guards: Dict[str, Set[str]] = {}
        for name, method in model.methods.items():
            if name in _INIT_METHODS:
                continue
            inherited: FrozenSet[str] = frozenset()
            if name.endswith("_locked"):
                inherited = call_held.get(name, frozenset())
            for access in method.accesses:
                if not access.write:
                    continue
                effective = access.held | inherited
                if effective:
                    guards.setdefault(access.attr, set()).update(effective)
        if not guards:
            return

        seen: Set[Tuple[str, int]] = set()
        for name, method in model.methods.items():
            if name in _INIT_METHODS:
                continue
            if name.endswith("_locked"):
                inherited_opt = call_held.get(name)
                if inherited_opt is None:
                    # No internal call sites: trust the *_locked convention
                    # that the caller holds the guarding lock.
                    continue
                inherited = inherited_opt
            else:
                inherited = frozenset()
            for access in method.accesses:
                guard = guards.get(access.attr)
                if not guard:
                    continue
                if (access.held | inherited) & guard:
                    continue
                key = (access.attr, getattr(access.node, "lineno", 0))
                if key in seen:
                    continue
                seen.add(key)
                lock_list = ", ".join(sorted(f"self.{g}" for g in guard))
                verb = "written" if access.write else "read"
                yield self.violation(
                    access.node,
                    ctx,
                    f"{model.name}.{access.attr} is guarded by {lock_list} "
                    f"but {verb} in {name}() without it",
                )


@register_rule
class BlockingUnderLockRule(Rule):
    """REP011: blocking operation performed while holding a lock."""

    rule_id = "REP011"
    description = "blocking operation performed while holding a lock"
    rationale = (
        "sleeping, file I/O, fsync, un-timed waits, and Future.result() "
        "under a lock stall every thread queued on that lock; move the "
        "blocking work outside the critical section"
    )
    severity = Severity.ERROR
    node_types = (ast.ClassDef,)
    applies_to_tests = False

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        model = build_class_model(node)
        if not model.locks:
            return
        seen: Set[Tuple[int, str]] = set()

        def emit(anchor: ast.AST, message: str) -> Iterator[Violation]:
            key = (getattr(anchor, "lineno", 0), message)
            if key not in seen:
                seen.add(key)
                yield self.violation(anchor, ctx, message)

        for method in model.methods.values():
            for op in method.blocking:
                if not op.held:
                    continue
                locks = ", ".join(sorted(f"self.{h}" for h in op.held))
                yield from emit(
                    op.node, f"{op.desc} while holding {locks}"
                )
            for call in method.self_calls:
                if not call.held:
                    continue
                callee = model.methods.get(call.callee)
                if callee is None:
                    continue
                locks = ", ".join(sorted(f"self.{h}" for h in call.held))
                for op in callee.blocking:
                    if op.held:
                        continue  # flagged at its own site
                    yield from emit(
                        call.node,
                        f"self.{call.callee}() performs {op.desc} while "
                        f"holding {locks}",
                    )


@register_rule
class LockOrderRule(ProjectRule):
    """REP012: cycle in the interprocedural lock-order graph."""

    rule_id = "REP012"
    description = "lock-order cycle (potential deadlock)"
    rationale = (
        "two threads taking the same locks in different orders can "
        "deadlock; the acquisition graph over every class plus the "
        "documented seed orderings must stay acyclic"
    )
    severity = Severity.ERROR
    applies_to_tests = False

    def __init__(
        self, seed_edges: Optional[Tuple[Tuple[str, str], ...]] = None
    ) -> None:
        self.seed_edges: Tuple[Tuple[str, str], ...] = (
            DEFAULT_SEED_EDGES if seed_edges is None else tuple(seed_edges)
        )
        self._models: Dict[str, Tuple[ClassLockModel, str]] = {}

    def begin(self) -> None:
        self._models = {}

    def observe(self, ctx: LintContext) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                model = build_class_model(node)
                if model.locks or model.methods:
                    self._models.setdefault(model.name, (model, ctx.path))

    def edges(self) -> Dict[Tuple[str, str], Optional[Tuple[str, int]]]:
        """The merged lock-order graph: edge -> first located source site."""
        edges: Dict[Tuple[str, str], Optional[Tuple[str, int]]] = {}

        def add(src: str, dst: str, site: Optional[Tuple[str, int]]) -> None:
            if src != dst:
                edges.setdefault((src, dst), site)

        for name, (model, path) in sorted(self._models.items()):
            for method in model.methods.values():
                for acq in method.acquisitions:
                    site = (path, getattr(acq.node, "lineno", 1))
                    for held in sorted(acq.held_before):
                        add(f"{name}.{held}", f"{name}.{acq.lock}", site)
                for call in method.self_calls:
                    if not call.held:
                        continue
                    callee = model.methods.get(call.callee)
                    if callee is None:
                        continue
                    site = (path, getattr(call.node, "lineno", 1))
                    for acq in callee.acquisitions:
                        for held in sorted(call.held):
                            add(f"{name}.{held}", f"{name}.{acq.lock}", site)
                for call in method.attr_calls:
                    if not call.held:
                        continue
                    target = self._resolve(model, call.attr)
                    if target is None:
                        continue
                    target_model = self._models[target][0]
                    target_method = target_model.methods.get(call.method)
                    if target_method is None:
                        continue
                    site = (path, getattr(call.node, "lineno", 1))
                    for acq in target_method.acquisitions:
                        for held in sorted(call.held):
                            add(
                                f"{name}.{held}",
                                f"{target}.{acq.lock}",
                                site,
                            )
        for src, dst in self.seed_edges:
            add(src, dst, None)
        return edges

    def _resolve(self, model: ClassLockModel, attr: str) -> Optional[str]:
        for candidate in model.attr_types.get(attr, ()):
            if candidate in self._models:
                return candidate
        return None

    def finish(self) -> Iterator[Violation]:
        edges = self.edges()
        for cycle in graph_cycles(set(edges)):
            site: Optional[Tuple[str, int]] = None
            for src, dst in zip(cycle, cycle[1:]):
                site = edges.get((src, dst))
                if site is not None:
                    break
            path, line = site if site is not None else ("<lock-order-seeds>", 1)
            chain = " -> ".join(cycle)
            yield Violation(
                path=path,
                line=line,
                col=0,
                rule_id=self.rule_id,
                message=f"lock-order cycle: {chain}",
                severity=self.severity,
                line_text="",
            )
