"""Deterministic fault-injection substrate: named failpoints + fault plans.

A *failpoint* is a named hook compiled into production code at the places
where real deployments fail: the Cholesky border update, the design-matrix
cache hit path, the registry publish, the engine's evaluation attempt.  In
normal operation a failpoint costs one module-global load and a ``None``
check -- there is no registry lookup, no lock, and no metrics traffic on
the disarmed path, so hooks can live on hot paths.

A *fault plan* (:class:`FaultPlan`) describes when an armed failpoint
should misbehave -- every Nth hit, with seeded probability ``p``, exactly
once, or by injecting latency -- and what to raise.  Plans are armed for a
scope with :func:`inject`::

    with inject(FaultPlan.fail_every("solver.cholesky", 3, error=SolverError("boom"))):
        run_chaos_stream(...)

Everything is deterministic: probabilistic plans draw from their own
seeded :class:`numpy.random.Generator`, and per-plan hit/trigger counters
advance in program order, so the same seed and the same driving produce
the same fault sequence (the chaos suite pins this down bitwise through
the metrics registry).

Injection activity is reported through ``faults.*`` counters in
:mod:`repro.runtime.metrics`: ``faults.hits`` (armed hits on planned
failpoints), ``faults.injected`` / ``faults.injected.<name>`` (errors
raised), and ``faults.delays`` (latency injections).
"""

from __future__ import annotations

import functools
from ..locks import named_lock
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Type, Union

import numpy as np


def _metrics():
    """Late import: keeps :mod:`repro.faults` a leaf package.

    :mod:`repro.runtime.cache` (pulled in by ``repro.runtime.__init__``)
    itself compiles in a failpoint, so a module-level metrics import here
    would be circular.  Only the armed dispatch path pays the lookup.
    """
    from ..runtime.metrics import metrics

    return metrics


__all__ = [
    "Failpoint",
    "FailpointRegistry",
    "FaultPlan",
    "FaultSession",
    "InjectedFault",
    "SimulatedCrash",
    "failpoint",
    "inject",
    "known_failpoints",
]


class InjectedFault(Exception):
    """Default error raised by a triggered fault plan."""


class SimulatedCrash(Exception):
    """Process death injected at a failpoint (crash-at-failpoint mode).

    Arm a plan with ``error=SimulatedCrash`` to model the process dying at
    that exact point.  Unlike :class:`InjectedFault`, library code never
    absorbs or retries this exception: handlers perform at most
    *crash-consistent* cleanup (e.g. :class:`repro.store.ModelStore`
    leaving a torn record on disk, exactly as a real power loss would) and
    re-raise, so the crash unwinds all the way to the harness -- which then
    discards every in-memory object, as a dead process implicitly does, and
    exercises recovery from durable state alone.
    """


ErrorSpec = Union[BaseException, Type[BaseException], Callable[[], BaseException]]


@dataclass(frozen=True)
class FaultPlan:
    """Immutable description of how one failpoint misbehaves while armed.

    Exactly one firing rule applies: ``every`` (fire on every Nth hit),
    ``probability`` (fire with seeded probability ``p`` per hit), or
    neither (fire on every hit).  ``max_triggers`` bounds total firings
    (``fail_once``).  A plan injects an error, latency, or both (latency
    is applied before the error is raised).

    Use the factory classmethods -- they read like the fault they model.
    """

    failpoint: str
    error: Optional[ErrorSpec] = None
    latency_seconds: float = 0.0
    every: Optional[int] = None
    probability: Optional[float] = None
    seed: Optional[int] = None
    max_triggers: Optional[int] = None
    #: Scope the plan to hits carrying this tag (``Failpoint.hit(tag=...)``);
    #: ``None`` matches every hit.  The sharded serving tier tags each
    #: engine's hits ``"shard-<id>"``, so a slow-shard chaos plan can
    #: degrade exactly one shard while its ring peers stay healthy.
    tag: Optional[str] = None

    def __post_init__(self):
        if not self.failpoint:
            raise ValueError("failpoint name must be non-empty")
        if self.error is None and self.latency_seconds <= 0:
            raise ValueError(
                "plan must inject an error, latency, or both; got neither"
            )
        if self.latency_seconds < 0:
            raise ValueError(
                f"latency_seconds must be >= 0, got {self.latency_seconds}"
            )
        if self.every is not None and self.probability is not None:
            raise ValueError("every and probability are mutually exclusive")
        if self.every is not None and self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if self.probability is not None:
            if not 0.0 < self.probability <= 1.0:
                raise ValueError(
                    f"probability must be in (0, 1], got {self.probability}"
                )
            if self.seed is None:
                raise ValueError(
                    "probabilistic plans require an explicit seed -- fault "
                    "injection must be reproducible"
                )
        if self.max_triggers is not None and self.max_triggers < 1:
            raise ValueError(f"max_triggers must be >= 1, got {self.max_triggers}")

    # -- factories ------------------------------------------------------
    @classmethod
    def fail_every(
        cls,
        failpoint: str,
        nth: int,
        error: Optional[ErrorSpec] = None,
        max_triggers: Optional[int] = None,
    ) -> "FaultPlan":
        """Raise on every ``nth`` hit of ``failpoint`` (1 = every hit)."""
        return cls(
            failpoint=failpoint,
            error=error if error is not None else InjectedFault,
            every=int(nth),
            max_triggers=max_triggers,
        )

    @classmethod
    def fail_with_probability(
        cls,
        failpoint: str,
        probability: float,
        seed: int,
        error: Optional[ErrorSpec] = None,
        max_triggers: Optional[int] = None,
    ) -> "FaultPlan":
        """Raise with probability ``p`` per hit, drawn from a seeded RNG."""
        return cls(
            failpoint=failpoint,
            error=error if error is not None else InjectedFault,
            probability=float(probability),
            seed=int(seed),
            max_triggers=max_triggers,
        )

    @classmethod
    def fail_once(
        cls, failpoint: str, error: Optional[ErrorSpec] = None
    ) -> "FaultPlan":
        """Raise on the first hit only (a transient, self-clearing fault)."""
        return cls(
            failpoint=failpoint,
            error=error if error is not None else InjectedFault,
            every=1,
            max_triggers=1,
        )

    @classmethod
    def latency(
        cls,
        failpoint: str,
        seconds: float,
        every: Optional[int] = None,
        max_triggers: Optional[int] = None,
        tag: Optional[str] = None,
    ) -> "FaultPlan":
        """Sleep ``seconds`` at the failpoint (a hung-worker / slow-IO spike).

        ``tag`` scopes the delay to hits carrying that tag -- the
        slow-*shard* (not slow-cluster) chaos scenario arms
        ``latency("engine.evaluate", ..., tag="shard-1")`` so only shard
        1's evaluations stall.
        """
        return cls(
            failpoint=failpoint,
            latency_seconds=float(seconds),
            every=every,
            max_triggers=max_triggers,
            tag=tag,
        )

    # -- runtime helpers ------------------------------------------------
    def build_error(self) -> BaseException:
        """Materialize the exception this plan injects."""
        spec = self.error
        if isinstance(spec, BaseException):
            return spec
        if isinstance(spec, type) and issubclass(spec, BaseException):
            return spec(f"injected fault at failpoint {self.failpoint!r}")
        if callable(spec):
            return spec()
        raise TypeError(f"unsupported error spec {spec!r}")


class _ArmedPlan:
    """Mutable runtime state of one armed plan (hit/trigger counters, RNG)."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = named_lock("faults.plan")
        self.hits = 0
        self.triggers = 0
        self._rng = (
            np.random.default_rng(plan.seed)
            if plan.probability is not None
            else None
        )

    def should_trigger(self) -> bool:
        plan = self.plan
        with self._lock:
            self.hits += 1
            if plan.max_triggers is not None and self.triggers >= plan.max_triggers:
                return False
            if plan.every is not None:
                fire = self.hits % plan.every == 0
            elif plan.probability is not None:
                fire = float(self._rng.random()) < plan.probability
            else:
                fire = True
            if fire:
                self.triggers += 1
            return fire

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "triggers": self.triggers}


class FaultSession:
    """One :func:`inject` activation: armed plans grouped by failpoint."""

    def __init__(self, plans: Tuple[FaultPlan, ...]):
        self._by_name: Dict[str, List[_ArmedPlan]] = {}
        self._armed: List[_ArmedPlan] = []
        for plan in plans:
            armed = _ArmedPlan(plan)
            self._armed.append(armed)
            self._by_name.setdefault(plan.failpoint, []).append(armed)

    def plans_for(self, name: str) -> Optional[List[_ArmedPlan]]:
        return self._by_name.get(name)

    def stats(self) -> Dict[str, List[Dict[str, int]]]:
        """Per-failpoint hit/trigger counters of every plan in the session."""
        out: Dict[str, List[Dict[str, int]]] = {}
        for name, armed_list in self._by_name.items():
            out[name] = [armed.stats() for armed in armed_list]
        return out


class FailpointRegistry:
    """Process-global catalog of failpoints and stack of armed sessions.

    Arming swaps an immutable tuple of sessions under a lock and flips the
    module-level ``_ACTIVE`` pointer; the disarmed hot path never touches
    the registry at all.
    """

    def __init__(self) -> None:
        self._lock = named_lock("faults.registry")
        self._points: Dict[str, "Failpoint"] = {}
        self._sessions: Tuple[FaultSession, ...] = ()

    # -- catalog --------------------------------------------------------
    def get_or_create(self, name: str) -> "Failpoint":
        if not name:
            raise ValueError("failpoint name must be non-empty")
        with self._lock:
            point = self._points.get(name)
            if point is None:
                point = Failpoint(name)
                self._points[name] = point
            return point

    def known(self) -> Tuple[str, ...]:
        """Sorted names of every failpoint created so far."""
        with self._lock:
            return tuple(sorted(self._points))

    # -- arming ---------------------------------------------------------
    def arm(self, plans: Tuple[FaultPlan, ...]) -> FaultSession:
        global _ACTIVE
        session = FaultSession(plans)
        with self._lock:
            self._sessions = self._sessions + (session,)
            _ACTIVE = self
        return session

    def disarm(self, session: FaultSession) -> None:
        global _ACTIVE
        with self._lock:
            self._sessions = tuple(s for s in self._sessions if s is not session)
            if not self._sessions:
                _ACTIVE = None

    @property
    def armed(self) -> bool:
        with self._lock:
            return bool(self._sessions)

    # -- hit dispatch (armed path only) ---------------------------------
    def dispatch(self, name: str, tag: Optional[str] = None) -> None:
        # Lock-free snapshot: _sessions is only ever rebound to a fresh
        # tuple under _lock, so one atomic read yields a consistent view;
        # taking the lock here would serialize every failpoint dispatch.
        sessions = self._sessions  # repro: noqa[REP010] -- deliberate lock-free tuple snapshot
        metrics = _metrics()
        for session in sessions:
            armed_list = session.plans_for(name)
            if not armed_list:
                continue
            metrics.increment("faults.hits")
            for armed in armed_list:
                # Tag-scoped plans only see matching hits: an untagged
                # hit never fires them and their hit/trigger counters
                # advance only on their own shard's traffic.
                if armed.plan.tag is not None and armed.plan.tag != tag:
                    continue
                if not armed.should_trigger():
                    continue
                plan = armed.plan
                if plan.latency_seconds > 0:
                    metrics.increment("faults.delays")
                    time.sleep(plan.latency_seconds)
                if plan.error is not None:
                    metrics.increment("faults.injected")
                    metrics.increment(f"faults.injected.{name}")
                    raise plan.build_error()


class Failpoint:
    """A named injection hook; cheap enough to call on hot paths.

    Usable three ways::

        _FP = failpoint("solver.cholesky")   # module-level, created once

        _FP.hit()                 # explicit evaluation at a point
        with _FP:                 # context form: evaluates on entry
            ...
        @_FP                      # decorator form: evaluates before the call
        def factor(...): ...

    When no plan is armed, :meth:`hit` is a global load plus a ``None``
    check -- unmeasurable on the served path (the vectorization benchmark
    enforces this).
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def hit(self, tag: Optional[str] = None) -> None:
        """Evaluate the failpoint: no-op unless a plan is armed for it.

        ``tag`` identifies the hitting instance (e.g. ``"shard-2"``) so
        tag-scoped plans can target one instance of a shared code path;
        untagged plans match regardless.
        """
        active = _ACTIVE
        if active is not None:
            active.dispatch(self.name, tag)

    def __enter__(self) -> "Failpoint":
        self.hit()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.hit()
            return fn(*args, **kwargs)

        return wrapper

    def __repr__(self) -> str:
        return f"Failpoint({self.name!r})"


#: Process-global failpoint registry (catalog + armed-session stack).
registry = FailpointRegistry()

#: Fast-path pointer: ``None`` whenever no session is armed.  Failpoint
#: hits read this single module global; arming/disarming swaps it under
#: the registry lock.
_ACTIVE: Optional[FailpointRegistry] = None


def failpoint(name: str) -> Failpoint:
    """The (cached) :class:`Failpoint` registered under ``name``.

    Consumers call this once at import time and keep the returned object
    in a module-level name, then call ``.hit()`` (or use ``with`` /
    decorator form) at the injection site.
    """
    return registry.get_or_create(name)


def known_failpoints() -> Tuple[str, ...]:
    """Sorted catalog of every failpoint name created in this process."""
    return registry.known()


@contextmanager
def inject(*plans: FaultPlan) -> Iterator[FaultSession]:
    """Arm ``plans`` for the duration of the ``with`` block.

    Yields the :class:`FaultSession`, whose :meth:`~FaultSession.stats`
    expose per-plan hit/trigger counters.  Nested activations compose:
    every armed session sees every hit.
    """
    if not plans:
        raise ValueError("inject() requires at least one FaultPlan")
    for plan in plans:
        if not isinstance(plan, FaultPlan):
            raise TypeError(f"expected FaultPlan, got {type(plan).__name__}")
    session = registry.arm(tuple(plans))
    try:
        yield session
    finally:
        registry.disarm(session)
