"""Micro-batching prediction engine over a model registry.

Callers submit prediction requests (a model name plus sample rows); a
dispatcher thread coalesces concurrent requests into micro-batches, stacks
their samples, and evaluates each batch with a **single**
``design_matrix`` call -- so the per-call assembly cost (and the
:class:`repro.runtime.DesignMatrixCache` entry, for repeated batches) is
shared across requests.  Evaluation fans out across a worker pool, one
task per (model, micro-batch) group.

Consistency guarantee: the current model version is resolved **once per
micro-batch group**, so every row of a response is computed from exactly
one published :class:`~repro.serving.registry.ModelVersion` -- a publish
or rollback racing with predictions can only land between batches, never
inside one.

Self-healing (``docs/faults.md``): requests carry
:class:`~repro.faults.Deadline` s that the dispatcher and workers honor
(expired requests are dropped *before* any design-matrix work and counted
as ``serving.expired``); evaluation failures are retried under a
decorrelated-jitter :class:`~repro.faults.RetryPolicy`; a per-model-key
:class:`~repro.faults.CircuitBreaker` stops hammering a version that
keeps failing; and when the current version cannot be served, the engine
degrades to the registry's newest good earlier version (at most one
version stale, counted as ``serving.degraded``) instead of failing the
request.  A version whose circuit opens is quarantined via
:meth:`~repro.serving.registry.ModelRegistry.mark_bad`.

Overload protection (``docs/store.md`` has the full metrics table): the
request queue is **bounded** (``max_queue_depth``).  When a submit finds
it full, admission control first sheds the *oldest already-expired*
queued requests -- they could never produce a useful answer, so they
make room for live work (``serving.shed.expired``); if the queue is
still full the new request is rejected immediately with
:class:`EngineOverloadedError` (``serving.shed.rejected``) instead of
growing an unbounded backlog.  The queue depth therefore never exceeds
the configured bound, and :meth:`PredictionEngine.stats` reports the
live and peak depths.

Throughput and latency are reported through :mod:`repro.runtime.metrics`:
``serving.requests`` / ``serving.batches`` counters, the accumulated
``serving.batch_size`` (mean batch size = ``batch_size / batches``), the
``serving.evaluate`` timer, plus the resilience counters
(``serving.expired`` / ``retries`` / ``degraded`` / ``failed``, the
``serving.shed.*`` load-shedding counters, and the ``serving.breaker.*``
transitions, which the breaker counts).  The engine counts its own events
once, through its scope of that registry (:attr:`PredictionEngine.metrics`),
which :meth:`PredictionEngine.stats` reads.
"""

from __future__ import annotations

import queue
import threading
from ..locks import named_condition, named_lock
import time
from collections import Counter, deque
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..faults import (
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExpiredError,
    RetryPolicy,
    failpoint,
)
from ..runtime.metrics import metrics
from .health import PRIORITY_NORMAL, BrownoutController, HealthTracker
from .registry import ModelRegistry, ModelVersion

__all__ = [
    "BrownoutShedError",
    "EngineOverloadedError",
    "EngineStoppedError",
    "ModelEvaluationError",
    "PredictionEngine",
]

#: Fires once per evaluation *attempt* (before the design-matrix call);
#: latency plans here model a slow worker, error plans a flaky evaluator.
_FP_EVALUATE = failpoint("engine.evaluate")


class EngineStoppedError(RuntimeError):
    """Raised when submitting to an engine that is not running."""


class EngineOverloadedError(RuntimeError):
    """A submit was rejected because the bounded request queue is full.

    Raised *immediately* at the submission site (no future involved), so
    an overloaded caller gets backpressure in microseconds instead of a
    deadline expiry seconds later.  Shedding already-expired queued
    requests is always tried first; see ``serving.shed.*``.
    """


class BrownoutShedError(EngineOverloadedError):
    """A request was shed by brownout priority admission.

    Raised at the submission site when a :class:`~repro.serving.health.
    BrownoutController` is configured and the engine's health score has
    degraded below the floor for the request's priority.  Subclasses
    :class:`EngineOverloadedError` so existing overload handling (the
    load harness, callers treating overload as backpressure) degrades
    gracefully without knowing about brownout.
    """


class ModelEvaluationError(RuntimeError):
    """A model version produced unusable (non-finite) predictions.

    Deterministic per version, so never retried -- it trips the circuit
    breaker and triggers degradation to the last good version instead.
    """


@dataclass
class _Request:
    name: str
    x: np.ndarray  # (B, R) float64
    future: Future = field(default_factory=Future)
    enqueued_at: float = 0.0
    deadline: Optional[Deadline] = None


_STOP = object()

#: Sentinel meaning "construct a fresh default CircuitBreaker per engine"
#: (a shared default instance would couple unrelated engines' states).
_DEFAULT_BREAKER = object()

#: Most requests the dispatcher coalesces into one micro-batch.
_MAX_BATCH_SIZE = 64

#: Health-score floor of the :meth:`PredictionEngine.ready` probe.
_READY_THRESHOLD = 0.5

#: Slice length of the liveness-checked un-timed wait
#: (:meth:`PredictionEngine.await_result`): long enough that the poll is
#: free next to any real evaluation, short enough that a dead dispatcher
#: is noticed promptly.
_LIVENESS_POLL_SECONDS = 0.05


class _BoundedRequestQueue:
    """FIFO of :class:`_Request` s with a hard depth bound.

    Admission control lives here so depth accounting, shedding, and the
    bound check happen under one condition variable: :meth:`offer`
    either admits the request (possibly after evicting oldest-expired
    entries to make room) or reports rejection -- the depth can never
    exceed the bound, which :attr:`peak_depth` records for the tests.
    Control sentinels (stop markers) bypass the bound; they must always
    be deliverable.  :meth:`pause` parks consumers without blocking
    producers, so tests can stage a deterministic backlog.  A ``bound`` of
    ``None`` leaves the queue unbounded.
    """

    def __init__(self, bound: Optional[int]):
        self._bound = bound
        self._cond = named_condition("serving.engine.queue")
        self._items: "deque" = deque()
        self._depth = 0  # _Request entries only; sentinels not counted
        self._peak = 0
        self._paused = False

    def offer(self, request: _Request) -> Tuple[bool, List[_Request]]:
        """Try to admit ``request``; returns ``(admitted, shed)``.

        ``shed`` lists expired requests evicted (oldest first) to make
        room; the caller owns failing their futures.  The shed sweep
        runs even when the newcomer is ultimately rejected, so a full
        queue of dead requests never starves live traffic.
        """
        bound = self._bound
        with self._cond:
            shed: List[_Request] = []
            if bound is not None and self._depth >= bound:
                need = self._depth - bound + 1
                retained: "deque" = deque()
                for item in self._items:
                    if (
                        len(shed) < need
                        and isinstance(item, _Request)
                        and item.deadline is not None
                        and item.deadline.expired
                    ):
                        shed.append(item)
                    else:
                        retained.append(item)
                self._items = retained
                self._depth -= len(shed)
            if bound is not None and self._depth >= bound:
                return False, shed
            self._items.append(request)
            self._depth += 1
            if self._depth > self._peak:
                self._peak = self._depth
            self._cond.notify()
            return True, shed

    def put_sentinel(self, sentinel: object) -> None:
        with self._cond:
            self._items.append(sentinel)
            self._cond.notify()

    def get(self, timeout: Optional[float] = None):
        """Pop the oldest item; raises ``queue.Empty`` on timeout/pause."""
        with self._cond:
            ready = self._cond.wait_for(
                lambda: self._items and not self._paused, timeout
            )
            if not ready:
                raise queue.Empty
            item = self._items.popleft()
            if isinstance(item, _Request):
                self._depth -= 1
            return item

    def get_nowait(self):
        return self.get(timeout=0)

    def pause(self) -> None:
        with self._cond:
            self._paused = True

    def resume(self) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    @property
    def paused(self) -> bool:
        with self._cond:
            return self._paused

    def depth(self) -> int:
        with self._cond:
            return self._depth

    def peak_depth(self) -> int:
        with self._cond:
            return self._peak


class PredictionEngine:
    """Micro-batching, multi-worker prediction front end.

    Parameters
    ----------
    registry:
        The :class:`~repro.serving.registry.ModelRegistry` to resolve model
        names against (resolution happens per micro-batch, at evaluation
        time).
    max_delay_seconds:
        How long the dispatcher lingers for additional requests after the
        first one of a batch arrives.  Zero disables lingering (each
        request still batches with whatever is already queued).  A
        micro-batch holds at most 64 requests.
    workers:
        Worker threads evaluating micro-batches.
    retry_policy:
        Bounded retry with decorrelated-jitter backoff applied to each
        evaluation; defaults to 3 attempts with caller errors and
        :class:`ModelEvaluationError` classified non-retryable.
    breaker:
        Per-model-key circuit breaker; pass ``None`` to disable.
    serve_last_good:
        Degrade to the registry's newest good earlier version when the
        current one cannot be evaluated (instead of failing requests).
    max_queue_depth:
        Hard bound on queued (not yet dispatched) requests.  A full
        queue sheds its oldest expired entries first and then rejects
        new submits with :class:`EngineOverloadedError`; ``None``
        disables the bound (pre-overload-protection behavior).
    brownout:
        Optional :class:`~repro.serving.health.BrownoutController`.
        When set, every :meth:`submit` is gated on the request's
        ``priority`` against the live health score; shed requests raise
        :class:`BrownoutShedError` at the submission site.  One
        controller may serve several engines; it keeps each one's regime.
    health:
        The :class:`~repro.serving.health.HealthTracker` behind
        :meth:`health_score` and the latency figures of :meth:`stats`;
        a fresh one per engine by default.
    fault_tag:
        Tag attached to this engine's failpoint hits
        (``engine.evaluate``), so tag-scoped fault plans can target one
        engine instance; the shard router tags each shard
        ``"shard-<id>"``.

    Use as a context manager, or call :meth:`start` / :meth:`stop`.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        max_delay_seconds: float = 0.001,
        workers: int = 2,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = _DEFAULT_BREAKER,  # type: ignore[assignment]
        serve_last_good: bool = True,
        max_queue_depth: Optional[int] = 1024,
        brownout: Optional[BrownoutController] = None,
        health: Optional[HealthTracker] = None,
        fault_tag: Optional[str] = None,
    ):
        if max_delay_seconds < 0:
            raise ValueError(
                f"max_delay_seconds must be >= 0, got {max_delay_seconds}"
            )
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1 or None, got {max_queue_depth}"
            )
        self.registry = registry
        self.max_delay_seconds = float(max_delay_seconds)
        self.workers = int(workers)
        if retry_policy is None:
            retry_policy = RetryPolicy(
                non_retryable=(TypeError, ValueError, KeyError, ModelEvaluationError)
            )
        self.retry_policy = retry_policy
        if breaker is _DEFAULT_BREAKER:
            breaker = CircuitBreaker()
        self.breaker = breaker
        self.serve_last_good = bool(serve_last_good)
        self._retry_rng = retry_policy.make_rng()
        self._retry_rng_lock = named_lock("serving.engine.retry_rng")
        self.max_queue_depth = (
            None if max_queue_depth is None else int(max_queue_depth)
        )
        self.brownout = brownout
        self.health = health if health is not None else HealthTracker()
        self.fault_tag = fault_tag
        self._last_ready: Optional[bool] = None
        self._queue = _BoundedRequestQueue(self.max_queue_depth)
        self._dispatcher: Optional[threading.Thread] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._running = False
        self._state_lock = named_lock("serving.engine.state")
        #: This engine's counts; each also lands in the global registry.
        self.metrics = metrics.scope()
        self._stats_lock = named_lock("serving.engine.stats")
        self._rows = 0
        self._max_version_lag = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "PredictionEngine":
        """Start the dispatcher and worker pool (idempotent)."""
        with self._state_lock:
            if self._running:
                return self
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-serve"
            )
            self._running = True
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
            )
            self._dispatcher.start()
        return self

    def stop(self) -> None:
        """Drain in-flight work and stop the engine (idempotent).

        Requests already picked up by the dispatcher are flushed and
        evaluated; requests still queued behind the stop sentinel (or that
        raced in during shutdown) are failed fast with
        :class:`EngineStoppedError` -- no future is ever left unresolved
        and no dispatcher thread is orphaned.
        """
        with self._state_lock:
            if not self._running:
                return
            self._running = False
            dispatcher = self._dispatcher
            pool = self._pool
            self._dispatcher = None
            self._pool = None
        self._queue.put_sentinel(_STOP)
        # A paused dispatcher would never see the stop sentinel.
        self._queue.resume()
        if dispatcher is not None:
            # Un-timed by design: the sentinel above guarantees the
            # dispatcher exits after at most one in-flight batch, and
            # stop() must not return before the queue is drained.
            dispatcher.join()  # repro: noqa[REP014] -- bounded by the stop sentinel
        self._drain_queue_failing_fast()
        if pool is not None:
            pool.shutdown(wait=True)

    def close(self) -> None:
        """Alias for :meth:`stop` (drain then shut down; idempotent)."""
        self.stop()

    def _drain_queue_failing_fast(self) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is _STOP:
                continue
            if not item.future.done():
                self.metrics.increment("serving.shutdown_drops")
                item.future.set_exception(
                    EngineStoppedError(
                        "engine stopped before the request was evaluated"
                    )
                )

    def __enter__(self) -> "PredictionEngine":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        with self._state_lock:
            return self._running

    # ------------------------------------------------------------------
    # Health probes
    # ------------------------------------------------------------------
    def queue_bound(self) -> Optional[int]:
        """The admission bound, ``max_queue_depth`` (``None`` = unbounded)."""
        return self.max_queue_depth

    def live(self) -> bool:
        """Liveness probe: the engine is running and its dispatcher breathes.

        Pure state inspection -- no metrics, no side effects -- so it is
        safe on arbitrary hot paths (``await_result`` polls it).
        """
        with self._state_lock:
            running = self._running
            dispatcher = self._dispatcher
        return running and dispatcher is not None and dispatcher.is_alive()

    def health_score(self) -> float:
        """Current health in ``[0, 1]``; see :class:`HealthTracker`.

        Folds the tracker's latency/error view with this engine's live
        queue pressure and the fraction of open breaker keys.
        """
        bound = self.queue_bound()
        depth = self._queue.depth()
        queue_fraction = depth / bound if bound else 0.0
        breaker_open_fraction = 0.0
        if self.breaker is not None:
            snapshot = self.breaker.snapshot()
            if snapshot:
                open_keys = sum(
                    1
                    for state in snapshot.values()
                    if state.get("state") == "open"
                )
                breaker_open_fraction = open_keys / len(snapshot)
        return self.health.score(
            queue_fraction=queue_fraction,
            breaker_open_fraction=breaker_open_fraction,
        )

    def ready(self) -> bool:
        """Readiness probe: live *and* a health score of at least 0.5.

        Transition edges are counted (``serving.health.degraded`` /
        ``serving.health.recovered``) so an operator sees flaps, not just
        the current state; the counters only move when a probe is
        actually called -- an unprobed engine emits nothing.
        """
        is_ready = self.live() and self.health_score() >= _READY_THRESHOLD
        transition: Optional[str] = None
        with self._stats_lock:
            # Baseline is "ready": an engine failing its very first probe
            # is a degradation, not a non-event.
            previous = True if self._last_ready is None else self._last_ready
            if previous != is_ready:
                transition = "recovered" if is_ready else "degraded"
            self._last_ready = is_ready
        if transition == "degraded":
            self.metrics.increment("serving.health.degraded")
        elif transition == "recovered":
            self.metrics.increment("serving.health.recovered")
        return is_ready

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        name: str,
        x: np.ndarray,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
        priority: int = PRIORITY_NORMAL,
    ) -> Future:
        """Enqueue a prediction request; returns a ``Future`` of the result.

        ``x`` is a single sample ``(R,)`` or a block ``(B, R)``; the future
        resolves to the prediction vector of shape ``(B,)`` (a single
        sample yields shape ``(1,)``).  ``timeout`` (seconds from now) or
        an explicit ``deadline`` attaches an expiry the dispatcher and
        workers enforce -- an expired request is dropped *before* any
        evaluation work and its future fails with
        :class:`~repro.faults.DeadlineExpiredError`.  ``priority`` only
        matters with a brownout controller configured: a degraded engine
        sheds :data:`~repro.serving.health.PRIORITY_LOW` (then
        ``PRIORITY_NORMAL``) work at the submission site with
        :class:`BrownoutShedError`.  Raises :class:`EngineStoppedError`
        if the engine is not running and :class:`EngineOverloadedError`
        if the bounded queue is full even after shedding its oldest
        expired entries.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[np.newaxis, :]
        if x.ndim != 2:
            raise ValueError(f"x must be 1-D or 2-D, got shape {x.shape}")
        if timeout is not None and deadline is not None:
            raise ValueError("pass timeout or deadline, not both")
        if timeout is not None:
            deadline = Deadline.after(timeout)
        if not self.running:
            raise EngineStoppedError("PredictionEngine is not running")
        if self.brownout is not None and not self.brownout.admit(
            priority, self.health_score(), self
        ):
            self.metrics.increment("serving.brownout.shed")
            raise BrownoutShedError(
                f"request for {name!r} (priority {priority}) shed by "
                "brownout: engine health degraded"
            )
        request = _Request(
            name=name,
            x=x,
            enqueued_at=time.perf_counter(),
            deadline=deadline,
        )
        admitted, shed = self._queue.offer(request)
        for stale in shed:
            self._shed(stale)
        if not admitted:
            self.metrics.increment("serving.shed.rejected")
            raise EngineOverloadedError(
                f"request queue full ({self.queue_bound()} deep); "
                f"request for {name!r} rejected"
            )
        self.metrics.increment("serving.requests")
        with self._stats_lock:
            self._rows += x.shape[0]
        return request.future

    def predict(
        self, name: str, x: np.ndarray, timeout: Optional[float] = 30.0
    ) -> np.ndarray:
        """Blocking convenience wrapper around :meth:`submit`.

        ``timeout`` is one total budget: a single deadline is computed at
        entry, attached to the request (so the dispatcher drops it as
        expired if the caller has already given up -- no ghost
        evaluations), and the blocking wait consumes only the budget
        *remaining* after submission.  (Passing ``timeout`` to both
        :meth:`submit` and ``Future.result`` would restart the clock at
        the wait and double the worst-case wall time.)

        ``timeout=None`` means "no deadline on the *request*", not "wait
        forever on a corpse": the wait polls the engine's liveness (see
        :meth:`await_result`), so a dead dispatcher fails the call fast
        with :class:`EngineStoppedError` instead of stranding the caller.
        """
        if timeout is None:
            return self.await_result(self.submit(name, x), name=name)
        deadline = Deadline.after(timeout)
        future = self.submit(name, x, deadline=deadline)
        return future.result(timeout=deadline.remaining())

    def await_result(self, future: Future, name: str = "request") -> np.ndarray:
        """Wait for ``future`` without a deadline but with a liveness check.

        The un-timed ``Future.result()`` convenience is a hang in
        disguise: a dispatcher that died (or an engine stopped without
        resolving this future) strands the caller forever.  This wait
        polls in short slices and re-checks :meth:`live` between them --
        when the engine is no longer live it makes one final grab (a
        racing :meth:`stop` may have just resolved the future) and then
        fails fast with :class:`EngineStoppedError`.
        """
        while True:
            try:
                return future.result(timeout=_LIVENESS_POLL_SECONDS)
            except FuturesTimeoutError:
                if self.live():
                    continue
            try:
                return future.result(timeout=_LIVENESS_POLL_SECONDS)
            except FuturesTimeoutError:
                raise EngineStoppedError(
                    f"engine is not live; abandoning un-timed wait for "
                    f"{name!r} (submit with a timeout/deadline for "
                    "bounded waits)"
                ) from None

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            head = self._queue.get()
            if head is _STOP:
                return
            batch = [head]
            deadline = time.perf_counter() + self.max_delay_seconds
            stopped = False
            while len(batch) < _MAX_BATCH_SIZE:
                remaining = deadline - time.perf_counter()
                try:
                    if remaining > 0:
                        item = self._queue.get(timeout=remaining)
                    else:
                        item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is _STOP:
                    stopped = True
                    break
                batch.append(item)
            self._flush(batch)
            if stopped:
                return

    def _expire(self, request: _Request) -> None:
        self.metrics.increment("serving.expired")
        if not request.future.done():
            request.future.set_exception(
                DeadlineExpiredError(
                    f"request for {request.name!r} expired before evaluation"
                )
            )

    def _shed(self, request: _Request) -> None:
        """Fail a queued request evicted by overload admission control."""
        self.metrics.increment("serving.shed.expired")
        if not request.future.done():
            request.future.set_exception(
                DeadlineExpiredError(
                    f"request for {request.name!r} expired in queue and was "
                    "shed under overload"
                )
            )

    # ------------------------------------------------------------------
    # Dispatch gating (deterministic overload tests; see docs/store.md)
    # ------------------------------------------------------------------
    def pause_dispatch(self) -> None:
        """Stop the dispatcher from picking up new batches.

        Submissions keep queueing (and shedding) normally, so a test can
        stage an exact backlog and observe admission control without
        racing the dispatcher.  Batches already picked up still finish.
        Idempotent; :meth:`stop` implies :meth:`resume_dispatch`.
        """
        self._queue.pause()

    def resume_dispatch(self) -> None:
        """Re-enable batch pickup after :meth:`pause_dispatch`."""
        self._queue.resume()

    def _flush(self, batch: List[_Request]) -> None:
        groups: Dict[str, List[_Request]] = {}
        for request in batch:
            # Deadline check at the dispatcher: expired requests (e.g. a
            # caller-side predict() timeout that already gave up) must not
            # cost a design_matrix call.
            if request.deadline is not None and request.deadline.expired:
                self._expire(request)
                continue
            groups.setdefault(request.name, []).append(request)
        with self._state_lock:
            pool = self._pool
        for name, requests in groups.items():
            try:
                version = self.registry.current(name)
            except KeyError as exc:
                for request in requests:
                    if not request.future.done():  # a cancel may have landed
                        request.future.set_exception(exc)
                continue
            self.metrics.increment("serving.batches")
            self.metrics.increment("serving.batch_size", len(requests))
            if pool is None:  # stop() raced the flush; evaluate inline
                self._evaluate(version, requests)
            else:
                pool.submit(self._evaluate, version, requests)

    # ------------------------------------------------------------------
    # Evaluation (worker side)
    # ------------------------------------------------------------------
    def _attempt(self, version: ModelVersion, stacked: np.ndarray) -> np.ndarray:
        _FP_EVALUATE.hit(tag=self.fault_tag)
        basis = version.model.basis
        coefficients = version.model.coefficients
        with self.metrics.timer("serving.evaluate"):
            # Overflow is converted to an explicit error below, not a warning.
            with np.errstate(over="ignore", invalid="ignore"):
                values = basis.fused_predict(stacked, coefficients)
        if not np.all(np.isfinite(values)):
            raise ModelEvaluationError(
                f"model {version.name!r} v{version.version} produced "
                "non-finite predictions"
            )
        return values

    def _evaluate_with_retry(
        self,
        version: ModelVersion,
        stacked: np.ndarray,
        deadline: Optional[Deadline],
    ) -> np.ndarray:
        def on_retry(error: BaseException, delay: float) -> None:
            self.metrics.increment("serving.retries")

        return self.retry_policy.call(
            lambda: self._attempt(version, stacked),
            rng=self._retry_rng,
            rng_lock=self._retry_rng_lock,
            deadline=deadline,
            on_retry=on_retry,
        )

    def _evaluate(self, version: ModelVersion, requests: List[_Request]) -> None:
        live: List[_Request] = []
        for request in requests:
            # Re-check at the worker: the group may have aged in the pool.
            if request.deadline is not None and request.deadline.expired:
                self._expire(request)
            elif not request.future.set_running_or_notify_cancel():
                # Cancelled while queued (hedge loser, caller gave up):
                # dropped before any stacking or design-matrix work.
                # Futures that survive this gate are RUNNING and can no
                # longer be cancelled, so the set_result below cannot race
                # a cancel.
                self.metrics.increment("serving.cancelled")
            else:
                live.append(request)
        if not live:
            return
        name = live[0].name
        deadlines = [r.deadline for r in live if r.deadline is not None]
        group_deadline = min(deadlines, key=lambda d: d.at) if deadlines else None
        stacked = np.concatenate([r.x for r in live], axis=0)

        served = version
        values: Optional[np.ndarray] = None
        error: Optional[BaseException] = None
        caller_error = False
        breaker = self.breaker
        if breaker is None or breaker.allow(version.key):
            try:
                values = self._evaluate_with_retry(version, stacked, group_deadline)
            except Exception as exc:
                error = exc
                # Bad requests (wrong shape, unknown column) say nothing
                # about the model's health: they must neither trip the
                # breaker nor trigger degradation.
                caller_error = isinstance(exc, (TypeError, ValueError, KeyError))
                if breaker is not None and not caller_error:
                    breaker.record_failure(version.key)
                    if (
                        self.serve_last_good
                        and breaker.state(version.key) == "open"
                    ):
                        # Quarantine the version so the registry degrades
                        # future resolution to last-good directly.
                        self.registry.mark_bad(name, version.version)
            else:
                if breaker is not None:
                    breaker.record_success(version.key)
        else:
            error = CircuitOpenError(
                f"circuit open for model {name!r} v{version.version}"
            )

        if values is None and self.serve_last_good and not caller_error:
            fallback = self.registry.previous_good(
                name, before_version=version.version
            )
            if fallback is not None:
                try:
                    values = self._evaluate_with_retry(
                        fallback, stacked, group_deadline
                    )
                except Exception:
                    if breaker is not None:
                        breaker.record_failure(fallback.key)
                else:
                    if breaker is not None:
                        breaker.record_success(fallback.key)
                    served = fallback
                    lag = version.version - fallback.version
                    self.metrics.increment("serving.degraded")
                    with self._stats_lock:
                        if lag > self._max_version_lag:
                            self._max_version_lag = lag

        if values is None:
            if error is None:
                error = ModelEvaluationError(
                    f"no servable version of model {name!r}"
                )
            self.metrics.increment("serving.failed", len(live))
            for request in live:
                self.health.observe_outcome(False)
                if not request.future.done():
                    request.future.set_exception(error)
            return

        offset = 0
        done = time.perf_counter()
        for request in live:
            rows = request.x.shape[0]
            request.future.set_result(values[offset : offset + rows])
            offset += rows
            # Always fed: the tracker's digest is where stats() reads latency.
            self.health.observe_latency(done - request.enqueued_at)
            self.health.observe_outcome(True)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Snapshot of the engine's counts, queue, health and breaker.

        Numeric keys plus ``"breaker"``, a nested per-model-key state map
        (empty when the breaker is disabled).  Event counts come from the
        engine's scope (:attr:`metrics`): ``batches`` counts dispatched
        groups and ``mean_batch_requests`` is ``serving.batch_size /
        serving.batches``.  Latency mean and max are exact figures over
        *served* requests, read from the health tracker's digest.  Each
        source is read once under its own lock, so under live traffic two
        keys may be a few events apart.
        """
        # Every source is read outside _stats_lock: the scope, tracker,
        # brownout controller, queue and breaker have locks of their own,
        # and nesting them would add lock-order edges.
        counts = Counter(self.metrics.counters())
        digest = self.health.digest
        health_score = self.health_score()
        is_live = self.live()
        brownout_active = (
            False if self.brownout is None else self.brownout.active_for(self)
        )
        with self._stats_lock:
            rows = self._rows
            max_version_lag = self._max_version_lag
        batches = counts["serving.batches"]
        return {
            "requests": counts["serving.requests"],
            "rows": rows,
            "batches": batches,
            "mean_batch_requests": (
                counts["serving.batch_size"] / batches if batches else 0.0
            ),
            "mean_latency_seconds": digest.mean,
            "max_latency_seconds": digest.maximum,
            "expired": counts["serving.expired"],
            "retries": counts["serving.retries"],
            "degraded": counts["serving.degraded"],
            "failed": counts["serving.failed"],
            "max_version_lag": max_version_lag,
            "shed_expired": counts["serving.shed.expired"],
            "shed_rejected": counts["serving.shed.rejected"],
            "cancelled": counts["serving.cancelled"],
            "brownout_shed": counts["serving.brownout.shed"],
            "queue_depth": self._queue.depth(),
            "peak_queue_depth": self._queue.peak_depth(),
            "queue_bound": self.max_queue_depth,
            "health_score": health_score,
            "live": is_live,
            "ready": is_live and health_score >= _READY_THRESHOLD,
            "brownout_active": brownout_active,
            "breaker": self.breaker.snapshot() if self.breaker else {},
        }
