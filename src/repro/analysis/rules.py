"""Domain-specific correctness rules (REP001-REP009, REP013-REP014) for this codebase.

Each rule guards an invariant the runtime layer depends on: deterministic
seeded RNG flow, no silent float-equality traps, no shared mutable state
without a lock, no validation that disappears under ``python -O``, no
file handles opened outside a ``with`` block.  See ``docs/analysis.md``
for the rationale and suppression workflow.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .engine import LintContext, Rule, register_rule
from .violations import Severity, Violation

__all__ = [
    "GlobalStateRngRule",
    "UnseededDefaultRngRule",
    "FloatEqualityRule",
    "MutableDefaultArgRule",
    "UnlockedModuleStateRule",
    "SwallowedExceptionRule",
    "AssertForValidationRule",
    "SleepInLibraryRule",
    "UnmanagedFileHandleRule",
    "UndeclaredMetricRule",
    "UntimedBlockingWaitRule",
]


def _dotted_name(node: ast.AST) -> Optional[str]:
    """Render a Name/Attribute chain as a dotted string (None if not one)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_float_literal(node: ast.AST) -> bool:
    """A float constant, including a negated one like ``-0.5``."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


#: Constructors whose results are mutable containers.
_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "OrderedDict", "defaultdict", "deque", "Counter"}
)


def _is_mutable_expr(node: ast.AST) -> bool:
    """Literal/constructor expressions that produce a mutable container."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted_name(node.func)
        if name is not None and name.rsplit(".", 1)[-1] in _MUTABLE_CALLS:
            return True
    return False


@register_rule
class GlobalStateRngRule(Rule):
    """REP001: use of numpy's legacy global-state RNG."""

    rule_id = "REP001"
    description = "legacy global-state numpy RNG"
    rationale = (
        "np.random.seed()/np.random.rand*() mutate hidden process-global "
        "state, so results depend on import order and thread interleaving; "
        "every sampling path must take an explicit np.random.Generator."
    )
    node_types = (ast.Attribute,)

    _LEGACY = frozenset(
        {
            "seed",
            "get_state",
            "set_state",
            "rand",
            "randn",
            "randint",
            "random",
            "random_sample",
            "random_integers",
            "ranf",
            "sample",
            "choice",
            "shuffle",
            "permutation",
            "normal",
            "standard_normal",
            "uniform",
            "binomial",
            "poisson",
            "exponential",
            "beta",
            "gamma",
            "lognormal",
            "multivariate_normal",
        }
    )

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        dotted = _dotted_name(node)
        if dotted is None:
            return
        parts = dotted.split(".")
        if (
            len(parts) == 3
            and parts[0] in ("np", "numpy")
            and parts[1] == "random"
            and parts[2] in self._LEGACY
        ):
            yield self.violation(
                node,
                ctx,
                f"`{dotted}` uses the hidden global RNG; pass a seeded "
                "np.random.Generator instead",
            )


@register_rule
class UnseededDefaultRngRule(Rule):
    """REP002: ``default_rng()`` with no seed outside tests."""

    rule_id = "REP002"
    description = "unseeded default_rng() in library code"
    rationale = (
        "An unseeded Generator draws OS entropy, making runs "
        "unreproducible; library code must accept or derive a seed."
    )
    node_types = (ast.Call,)
    applies_to_tests = False

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        dotted = _dotted_name(node.func)
        if dotted is None or dotted.rsplit(".", 1)[-1] != "default_rng":
            return
        seed_args = [a for a in node.args if not isinstance(a, ast.Starred)]
        seed_kwargs = [k for k in node.keywords if k.arg == "seed"]
        unseeded = not node.args and not seed_kwargs
        if seed_args and isinstance(seed_args[0], ast.Constant) and seed_args[0].value is None:
            unseeded = True
        if seed_kwargs and (
            isinstance(seed_kwargs[0].value, ast.Constant)
            and seed_kwargs[0].value.value is None
        ):
            unseeded = True
        if any(isinstance(a, ast.Starred) for a in node.args):
            unseeded = False  # cannot tell statically; give the benefit of the doubt
        if unseeded:
            yield self.violation(
                node,
                ctx,
                "default_rng() without a seed is unreproducible; thread an "
                "explicit seed or Generator through instead",
            )


@register_rule
class FloatEqualityRule(Rule):
    """REP003: ``==``/``!=`` against a float literal."""

    rule_id = "REP003"
    description = "exact equality against a float literal"
    rationale = (
        "Computed floats differ from literals by round-off; compare with "
        "a tolerance (repro.linalg.is_effectively_zero) unless the value "
        "is an exact sentinel, which must be marked with a noqa comment."
    )
    node_types = (ast.Compare,)
    applies_to_tests = False

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        elements = [node.left] + list(node.comparators)
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_float_literal(elements[i]) or _is_float_literal(elements[i + 1]):
                yield self.violation(
                    node,
                    ctx,
                    "exact ==/!= against a float literal; use a tolerance "
                    "check (e.g. repro.linalg.is_effectively_zero) or mark "
                    "the sentinel with `# repro: noqa[REP003]`",
                )
                return


@register_rule
class MutableDefaultArgRule(Rule):
    """REP004: mutable default argument."""

    rule_id = "REP004"
    description = "mutable default argument"
    rationale = (
        "Default values are evaluated once at definition time, so a "
        "mutable default is shared across every call."
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        args = node.args
        for default in list(args.defaults) + [d for d in args.kw_defaults if d is not None]:
            if _is_mutable_expr(default):
                name = getattr(node, "name", "<lambda>")
                yield self.violation(
                    default,
                    ctx,
                    f"mutable default argument in `{name}`; use None and "
                    "construct inside the body",
                )


@register_rule
class UnlockedModuleStateRule(Rule):
    """REP005: module-level mutable container without a module-level lock."""

    rule_id = "REP005"
    description = "module-level mutable state without a lock"
    rationale = (
        "Process-global containers are shared across threads (metrics "
        "registry, design cache); every module holding one must also hold "
        "a threading.Lock guarding its mutation paths."
    )
    node_types = (ast.Module,)

    _LOCK_NAMES = frozenset({"Lock", "RLock", "named_lock", "named_rlock"})

    def _has_module_lock(self, module: ast.Module) -> bool:
        for stmt in module.body:
            value = None
            if isinstance(stmt, ast.Assign):
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                value = stmt.value
            if isinstance(value, ast.Call):
                name = _dotted_name(value.func)
                if name is not None and name.rsplit(".", 1)[-1] in self._LOCK_NAMES:
                    return True
        return False

    @staticmethod
    def _is_constant_name(name: str) -> bool:
        stripped = name.lstrip("_")
        return name.startswith("__") or (stripped.isupper() and bool(stripped))

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        has_lock = self._has_module_lock(node)
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if value is None or not _is_mutable_expr(value):
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if self._is_constant_name(target.id):
                    continue  # UPPER_CASE / dunder: read-only by convention
                if has_lock:
                    continue
                yield self.violation(
                    stmt,
                    ctx,
                    f"module-level mutable `{target.id}` has no accompanying "
                    "threading.Lock in this module",
                )


@register_rule
class SwallowedExceptionRule(Rule):
    """REP006: bare except or handler that silently swallows."""

    rule_id = "REP006"
    description = "bare except / silently swallowed exception"
    rationale = (
        "Bare excepts catch KeyboardInterrupt/SystemExit, and pass-only "
        "handlers hide real failures; catch narrowly and at least log."
    )
    node_types = (ast.ExceptHandler,)

    @staticmethod
    def _swallows(handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring / ellipsis
            return False
        return True

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        if node.type is None:
            yield self.violation(
                node, ctx, "bare `except:` catches SystemExit/KeyboardInterrupt; name the exception"
            )
        elif self._swallows(node):
            yield self.violation(
                node, ctx, "exception handler silently swallows; handle, log, or re-raise"
            )


@register_rule
class AssertForValidationRule(Rule):
    """REP007: ``assert`` used for runtime validation in library code."""

    rule_id = "REP007"
    description = "assert used for runtime validation in src/"
    rationale = (
        "Assertions are stripped under `python -O`, so library invariants "
        "guarded by assert vanish in optimized deployments; raise "
        "ValueError/TypeError instead."
    )
    node_types = (ast.Assert,)
    applies_to_tests = False
    severity = Severity.ERROR

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        yield self.violation(
            node,
            ctx,
            "assert is stripped under -O; raise an explicit exception for "
            "runtime validation",
        )


@register_rule
class SleepInLibraryRule(Rule):
    """REP008: ``time.sleep`` in library code outside sanctioned modules."""

    rule_id = "REP008"
    description = "time.sleep in library code outside repro.faults"
    rationale = (
        "Ad-hoc sleeps in library code hide races, stall the serving path, "
        "and make latency untestable; blocking delays belong to the "
        "sanctioned backoff/latency-injection modules in repro/faults/, "
        "where they are policy-driven and fault-plan controlled."
    )
    node_types = (ast.Call,)
    applies_to_tests = False

    #: Path fragments whose modules may legitimately sleep: the retry
    #: backoff and the latency-injection dispatch.
    _SANCTIONED = ("repro/faults/",)

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        dotted = _dotted_name(node.func)
        if dotted is None or dotted not in ("time.sleep", "sleep"):
            return
        if dotted == "sleep" and not isinstance(node.func, ast.Name):
            return
        normalized = ctx.path.replace("\\", "/")
        if any(fragment in normalized for fragment in self._SANCTIONED):
            return
        yield self.violation(
            node,
            ctx,
            "time.sleep outside repro/faults/; inject latency via a "
            "FaultPlan or back off via RetryPolicy instead",
        )


@register_rule
class UnmanagedFileHandleRule(Rule):
    """REP009: ``open()``/``NamedTemporaryFile`` outside a ``with`` block."""

    rule_id = "REP009"
    description = "file handle opened outside a with block"
    rationale = (
        "A handle not bound to a `with` block leaks its descriptor on any "
        "exception between open and close, and an unflushed buffer can "
        "outlive the code that believes it wrote; the crash-safe store's "
        "atomic-rename protocol requires every temp handle to be closed "
        "before os.replace.  Deliberately long-lived handles must carry a "
        "noqa with justification."
    )
    # The rule needs to know which calls sit inside a `with` item, so it
    # takes the whole module and walks it once itself.
    node_types = (ast.Module,)
    applies_to_tests = False

    #: Exact dotted names always treated as file-handle constructors.
    #: ``os.open`` (raw fd) and ``path.open`` (method) deliberately absent.
    _EXACT_OPENERS = frozenset({"open", "io.open"})

    def _is_opener(self, call: ast.Call) -> bool:
        dotted = _dotted_name(call.func)
        if dotted is None:
            return False
        if dotted in self._EXACT_OPENERS:
            return True
        return dotted.rsplit(".", 1)[-1] == "NamedTemporaryFile"

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        managed = set()
        for sub in ast.walk(node):
            if isinstance(sub, (ast.With, ast.AsyncWith)):
                for item in sub.items:
                    for inner in ast.walk(item.context_expr):
                        if isinstance(inner, ast.Call):
                            managed.add(inner)
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and sub not in managed
                and self._is_opener(sub)
            ):
                dotted = _dotted_name(sub.func)
                yield self.violation(
                    sub,
                    ctx,
                    f"`{dotted}(...)` outside a with block leaks the handle "
                    "on error; bind it with `with` (or noqa a deliberately "
                    "long-lived handle)",
                )


@register_rule
class UndeclaredMetricRule(Rule):
    """REP013: metric name emitted but not declared in the runtime catalog."""

    rule_id = "REP013"
    description = "metric name not declared in repro.runtime.catalog"
    rationale = (
        "Dashboards, the docs metric tables, and the loadgen report "
        "schema key off the central catalog; a counter incremented under "
        "an undeclared name is invisible to all of them.  Declare it in "
        "repro.runtime.catalog.METRICS/TIMERS (dynamic names must start "
        "with a DYNAMIC_PREFIXES entry) and document it under docs/."
    )
    severity = Severity.ERROR
    node_types = (ast.Call,)
    applies_to_tests = False

    def _is_metrics_receiver(self, receiver: ast.AST) -> bool:
        """A name or attribute whose last part ends in ``metrics``
        (``metrics``, ``runtime_metrics``, ``self._metrics``), or a call
        of one (``_metrics()``)."""
        if isinstance(receiver, ast.Call):
            receiver = receiver.func
        dotted = _dotted_name(receiver)
        return dotted is not None and dotted.rsplit(".", 1)[-1].endswith("metrics")

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in (
            "increment",
            "timer",
        ):
            return
        if not self._is_metrics_receiver(func.value) or not node.args:
            return
        # Imported late: the catalog lives in repro.runtime, which pulls in
        # modules that themselves import repro.analysis at import time.
        from ..runtime.catalog import DYNAMIC_PREFIXES, is_declared

        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if not is_declared(arg.value):
                yield self.violation(
                    node,
                    ctx,
                    f"metric `{arg.value}` is not declared in "
                    "repro.runtime.catalog",
                )
        elif isinstance(arg, ast.JoinedStr):
            head = arg.values[0] if arg.values else None
            prefix = (
                head.value
                if isinstance(head, ast.Constant) and isinstance(head.value, str)
                else ""
            )
            if not any(
                prefix == p or prefix.startswith(p) for p in DYNAMIC_PREFIXES
            ):
                yield self.violation(
                    node,
                    ctx,
                    "dynamically-formatted metric name must start with a "
                    "declared DYNAMIC_PREFIXES entry from "
                    "repro.runtime.catalog",
                )


@register_rule
class UntimedBlockingWaitRule(Rule):
    """REP014: un-timed ``.result()`` / ``.join()`` / ``.wait()`` in library code."""

    rule_id = "REP014"
    description = "un-timed blocking wait (.result/.join/.wait) in library code"
    rationale = (
        "An un-timed Future.result(), Thread.join(), or Event.wait() is a "
        "hang in disguise: if the producer died (a dispatcher crash, an "
        "engine stopped without resolving the future) the caller is "
        "stranded forever with no error.  Library waits must carry a "
        "timeout, poll with a liveness check (PredictionEngine."
        "await_result), or be provably bounded and noqa-sanctioned.  "
        "Complements REP011, which only covers blocking *under a lock*."
    )
    severity = Severity.ERROR
    node_types = (ast.Call,)
    applies_to_tests = False

    #: Path fragments whose modules may block without a timeout: the
    #: fault substrate's latency injection and deadline plumbing are the
    #: sanctioned home of deliberate blocking.
    _SANCTIONED = ("repro/faults/",)
    _METHODS = frozenset({"result", "join", "wait"})

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Violation]:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in self._METHODS:
            return
        # Any positional argument is a timeout (or, for str.join, an
        # iterable -- not a blocking wait at all); an explicit timeout=
        # keyword is the bounded form; **kwargs is opaque, give it the
        # benefit of the doubt.
        if node.args:
            return
        if any(kw.arg is None or kw.arg == "timeout" for kw in node.keywords):
            return
        normalized = ctx.path.replace("\\", "/")
        if any(fragment in normalized for fragment in self._SANCTIONED):
            return
        yield self.violation(
            node,
            ctx,
            f"un-timed .{func.attr}() can strand the caller if the "
            "producer dies; pass a timeout, use a liveness-checked wait, "
            "or sanction a provably bounded join with a noqa",
        )
