"""Tail-tolerant serving primitives: health scoring, hedging, brownout.

The sharded tier (``repro.serving.sharding``) treats a *dead* shard
correctly -- the ring skips it and warm replicas absorb its names -- but
a *slow* shard (GC pause, cold cache after restart, noisy neighbor) is
still routed to as if it were healthy, so one straggler drags p99 for
every model it owns while idle replicas hold the same bits.  This module
supplies the pieces that close that gap (``docs/serving.md`` has the
operator-facing runbook):

* :class:`LatencyDigest` -- a fixed-bucket, log-spaced latency histogram
  (stdlib + numpy only; no new deps) with an exact running sum and max.
  Constant memory, O(buckets) quantile reads, thread-safe.
* :class:`HealthTracker` -- folds the digest's quantiles, a windowed
  error rate, breaker state, and queue depth into one health score in
  ``[0, 1]``; the engine exposes it through liveness/readiness probes.
* :class:`HedgePolicy` + :class:`HedgedFuture` -- hedged requests: when
  the primary shard has not answered within an adaptive hedge delay
  (the router's tracked latency quantile, clamped), a second attempt is
  dispatched to a warm replica that already holds the model via journal
  replication; the first result wins and the loser is cancelled.  A
  token-bucket **hedge budget** caps hedges at a fraction of submitted
  requests, so hedging can never amplify an overload into a retry storm.
* :class:`BrownoutController` sheds optional / low-priority work first
  when the health score degrades.

Determinism: nothing here spawns a thread or reads a hidden clock.  The
brownout controller is a pure function of the score it is handed, and
hedge decisions -- inherently timing-driven -- are confined to counters
(``serving.hedge.*``) that are excluded from the chaos suite's
deterministic signatures, exactly like the ``lock.*`` watchdog family.
"""

from __future__ import annotations

import math
import time
import weakref
from collections import Counter
from concurrent.futures import CancelledError, Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..locks import named_lock
from ..runtime.metrics import metrics

__all__ = [
    "BrownoutController",
    "HealthTracker",
    "HedgePolicy",
    "HedgedFuture",
    "LatencyDigest",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
]

#: Request priorities for brownout shedding: LOW is optional work shed
#: first, HIGH survives the deepest brownout.
PRIORITY_LOW = 0
PRIORITY_NORMAL = 1
PRIORITY_HIGH = 2

#: :class:`LatencyDigest` range and resolution: log-spaced buckets from
#: 10 us to 60 s, 15 per decade (~17% relative quantile error).
_DIGEST_MIN_SECONDS = 1e-5
_DIGEST_MAX_SECONDS = 60.0
_DIGEST_BUCKETS_PER_DECADE = 15

#: :class:`HealthTracker` penalty weights and the digest quantile its
#: latency term reads.
_ERROR_WEIGHT = 1.0
_LATENCY_WEIGHT = 0.5
_QUEUE_WEIGHT = 0.5
_BREAKER_WEIGHT = 1.0
_LATENCY_QUANTILE = 0.95

#: :class:`BrownoutController` score thresholds: below the first,
#: low-priority work is shed; below the second, only high-priority work
#: is admitted.
_BROWNOUT_LOW_THRESHOLD = 0.7
_BROWNOUT_NORMAL_THRESHOLD = 0.4


class LatencyDigest:
    """Fixed-bucket log-spaced latency histogram with quantile reads.

    Buckets are geometrically spaced between 10 us and 60 s, 15 per power
    of ten, plus one underflow and one overflow bucket -- constant memory
    regardless of how many samples stream through, which is what lets
    every request feed it on the hot path.  :meth:`quantile` returns the
    *upper edge* of the bucket where the cumulative count crosses the
    rank, a conservative (never under-reporting) estimate with bounded
    relative error ``10^(1/15) - 1`` (~17%).  :attr:`mean` and
    :attr:`maximum` are exact: the digest also keeps a running sum and max
    of the raw samples.
    """

    def __init__(self):
        self._log_min = math.log10(_DIGEST_MIN_SECONDS)
        decades = math.log10(_DIGEST_MAX_SECONDS) - self._log_min
        inner = max(1, math.ceil(decades * _DIGEST_BUCKETS_PER_DECADE))
        # index 0 = underflow, 1..inner = log-spaced, inner+1 = overflow
        self._counts = [0] * (inner + 2)
        self._inner = inner
        self._total = 0
        self._sum = 0.0
        self._max = 0.0
        self._lock = named_lock("serving.health.digest")

    def _bucket(self, seconds: float) -> int:
        if seconds <= 0:
            return 0
        position = (math.log10(seconds) - self._log_min) * _DIGEST_BUCKETS_PER_DECADE
        if position < 0:
            return 0
        index = int(position) + 1
        return min(index, self._inner + 1)

    def _edge(self, index: int) -> float:
        """Upper edge of bucket ``index`` in seconds."""
        if index <= 0:
            return 10.0 ** self._log_min
        exponent = self._log_min + index / _DIGEST_BUCKETS_PER_DECADE
        return 10.0 ** exponent

    def observe(self, seconds: float) -> None:
        """Fold one latency sample into the histogram."""
        seconds = float(seconds)
        index = self._bucket(seconds)
        with self._lock:
            self._counts[index] += 1
            self._total += 1
            self._sum += seconds
            if seconds > self._max:
                self._max = seconds

    @property
    def count(self) -> int:
        with self._lock:
            return self._total

    @property
    def mean(self) -> float:
        """Exact mean of the observed samples in seconds; 0.0 when empty."""
        with self._lock:
            return self._sum / self._total if self._total else 0.0

    @property
    def maximum(self) -> float:
        """Largest observed sample in seconds, exact; 0.0 when empty."""
        with self._lock:
            return self._max

    def quantile(self, q: float) -> Optional[float]:
        """Conservative ``q``-quantile in seconds; ``None`` when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        with self._lock:
            total = self._total
            counts = list(self._counts)
        if total == 0:
            return None
        rank = q * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                return self._edge(index)
        return self._edge(len(counts) - 1)

    def snapshot(self) -> Dict[str, float]:
        """Point-in-time p50/p95/p99 plus the sample count."""
        with self._lock:
            total = self._total
        out: Dict[str, float] = {"count": float(total)}
        for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            value = self.quantile(q)
            out[label] = 0.0 if value is None else value
        return out


class HealthTracker:
    """Folds latency, errors, breaker state, and queue depth into a score.

    The score is ``1 - (weighted penalties)``, clamped to ``[0, 1]``:

    * **error rate** over the last ``window`` outcomes (weight 1) -- a
      shard failing half its evaluations is sick no matter how fast it
      fails;
    * **latency**: how far the digest's p95 sits above
      ``target_latency_seconds`` (weight 0.5, penalty saturating at 3x
      the target).  With no target configured the latency term is
      skipped -- absolute latency is workload-specific;
    * **queue pressure** (weight 0.5) and **breaker state** (weight 1)
      are arguments to :meth:`score` because they live with the caller
      (the engine knows its queue bound and its breaker snapshot, the
      tracker does not).

    Pure bookkeeping: no metrics, no clock, no threads -- every engine
    carries one tracker whether or not anything reads it, so it must be
    free of side effects on the default path (the chaos suite's bitwise
    counter signatures depend on that).  The engine reads its ``stats()``
    latency mean and max from :attr:`digest`, so engines sharing one
    tracker share those figures.
    """

    def __init__(
        self,
        window: int = 128,
        target_latency_seconds: Optional[float] = None,
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if target_latency_seconds is not None and target_latency_seconds <= 0:
            raise ValueError(
                "target_latency_seconds must be > 0 or None, got "
                f"{target_latency_seconds}"
            )
        self.window = int(window)
        self.target_latency_seconds = target_latency_seconds
        self.digest = LatencyDigest()
        self._lock = named_lock("serving.health.tracker")
        self._outcomes: List[bool] = []
        self._next = 0  # ring-buffer write cursor once the window fills

    def observe_latency(self, seconds: float) -> None:
        self.digest.observe(seconds)

    def observe_outcome(self, ok: bool) -> None:
        """Record one request outcome into the rolling window."""
        with self._lock:
            if len(self._outcomes) < self.window:
                self._outcomes.append(bool(ok))
            else:
                self._outcomes[self._next] = bool(ok)
                self._next = (self._next + 1) % self.window

    def error_rate(self) -> float:
        """Fraction of failures over the rolling window (0.0 when empty)."""
        with self._lock:
            if not self._outcomes:
                return 0.0
            failures = sum(1 for ok in self._outcomes if not ok)
            return failures / len(self._outcomes)

    def _latency_penalty(self) -> float:
        if self.target_latency_seconds is None:
            return 0.0
        observed = self.digest.quantile(_LATENCY_QUANTILE)
        if observed is None or observed <= self.target_latency_seconds:
            return 0.0
        # Saturates at 3x target: beyond that the shard is simply "slow".
        excess = observed / self.target_latency_seconds - 1.0
        return min(1.0, excess / 2.0)

    def score(
        self,
        queue_fraction: float = 0.0,
        breaker_open_fraction: float = 0.0,
    ) -> float:
        """Health in ``[0, 1]``: 1.0 = healthy, 0.0 = unusable.

        ``queue_fraction`` is queued depth over the queue bound;
        ``breaker_open_fraction`` is the fraction of this engine's
        breaker keys currently open.
        """
        penalty = (
            _ERROR_WEIGHT * self.error_rate()
            + _LATENCY_WEIGHT * self._latency_penalty()
            + _QUEUE_WEIGHT * max(0.0, min(1.0, queue_fraction))
            + _BREAKER_WEIGHT * max(0.0, min(1.0, breaker_open_fraction))
        )
        return max(0.0, min(1.0, 1.0 - penalty))

    def snapshot(self) -> Dict[str, float]:
        """The digest's quantiles and count plus the windowed error rate.

        No score: only the engine knows the queue and breaker fractions,
        so :meth:`PredictionEngine.health_score
        <repro.serving.PredictionEngine.health_score>` is the one score.
        """
        out = self.digest.snapshot()
        out["error_rate"] = self.error_rate()
        return out


class BrownoutController:
    """Sheds optional work first when the health score degrades.

    Two thresholds partition the score axis into three regimes:

    * ``score >= 0.7``: healthy -- everything admitted;
    * ``0.4 <= score < 0.7``: brownout -- :data:`PRIORITY_LOW` (optional)
      work is shed;
    * ``score < 0.4``: deep brownout -- only :data:`PRIORITY_HIGH` work is
      admitted.

    :meth:`admit` is a pure function of ``(priority, score)`` except for
    the regime it keeps per caller: one controller may serve several
    engines, each passing itself as ``caller``, and each engine's regime
    is its own.  ``serving.brownout.entered`` / ``exited`` fire in the
    controller's own scope (:attr:`metrics`) when a caller's regime
    crosses the healthy boundary, and :attr:`active` is true while any
    caller is browned out.  A rejected request is counted once, as
    ``serving.brownout.shed``, by the engine that rejects it, and each
    engine's ``stats()`` reports its own sheds and regime.
    """

    def __init__(self):
        self._lock = named_lock("serving.health.brownout")
        # Callers currently browned out; weak, so a dropped engine leaves.
        self._browned_out: weakref.WeakSet = weakref.WeakSet()
        self.metrics = metrics.scope()

    def min_priority(self, score: float) -> int:
        """Lowest priority admitted at ``score``."""
        if score >= _BROWNOUT_LOW_THRESHOLD:
            return PRIORITY_LOW
        if score >= _BROWNOUT_NORMAL_THRESHOLD:
            return PRIORITY_NORMAL
        return PRIORITY_HIGH

    @property
    def active(self) -> bool:
        """True while any caller of this controller is browned out."""
        with self._lock:
            return len(self._browned_out) > 0

    def active_for(self, caller: object) -> bool:
        """True while ``caller`` (as passed to :meth:`admit`) is browned out."""
        with self._lock:
            return caller in self._browned_out

    def admit(self, priority: int, score: float, caller: object = None) -> bool:
        """Admission decision for one request; updates ``caller``'s regime.

        ``caller`` defaults to the controller itself, for a controller
        that serves one caller.
        """
        floor = self.min_priority(score)
        browned_out = floor > PRIORITY_LOW
        if caller is None:
            caller = self
        with self._lock:
            changed = browned_out != (caller in self._browned_out)
            if browned_out:
                self._browned_out.add(caller)
            else:
                self._browned_out.discard(caller)
        if changed and browned_out:
            self.metrics.increment("serving.brownout.entered")
        elif changed:
            self.metrics.increment("serving.brownout.exited")
        return priority >= floor

    def stats(self) -> Dict[str, object]:
        counts = Counter(self.metrics.counters())
        return {
            "active": self.active,
            "entered": counts["serving.brownout.entered"],
            "exited": counts["serving.brownout.exited"],
        }


@dataclass(frozen=True)
class HedgePolicy:
    """Frozen configuration of hedged requests on a :class:`ShardRouter`.

    ``budget_fraction`` is the hedge budget: a token bucket accrues that
    many tokens per submitted request (capped at ``burst``) and every
    hedge spends one, so hedges can never exceed
    ``budget_fraction * submitted + burst`` -- an overloaded tier sends
    *fewer* hedges, never more.  The hedge delay adapts to the router's
    observed latency: the ``delay_quantile`` of the shared digest,
    clamped to ``[min_delay_seconds, max_delay_seconds]``;
    ``initial_delay_seconds`` applies until ``min_samples`` latencies
    have been observed.
    """

    budget_fraction: float = 0.05
    burst: float = 4.0
    delay_quantile: float = 0.95
    initial_delay_seconds: float = 0.05
    min_delay_seconds: float = 0.001
    max_delay_seconds: float = 1.0
    min_samples: int = 16

    def __post_init__(self):
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ValueError(
                f"budget_fraction must be in (0, 1], got {self.budget_fraction}"
            )
        if self.burst < 1.0:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if not 0.0 < self.delay_quantile < 1.0:
            raise ValueError(
                f"delay_quantile must be in (0, 1), got {self.delay_quantile}"
            )
        if self.initial_delay_seconds <= 0:
            raise ValueError(
                "initial_delay_seconds must be > 0, got "
                f"{self.initial_delay_seconds}"
            )
        if not 0.0 < self.min_delay_seconds <= self.max_delay_seconds:
            raise ValueError(
                "need 0 < min_delay_seconds <= max_delay_seconds, got "
                f"{self.min_delay_seconds} / {self.max_delay_seconds}"
            )
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {self.min_samples}")


class _HedgeCoordinator:
    """Router-side hedge state: shared digest, token budget, metrics scope.

    One per :class:`ShardRouter` (when hedging is enabled); every
    :class:`HedgedFuture` the router hands out reports its outcome here,
    so budget accounting and the adaptive delay see the whole tier, not
    one request.  The token bucket is **count-based** (tokens accrue per
    submitted request, not per second): under zero traffic no budget
    accrues, and a traffic spike earns budget proportional to itself --
    the property that makes "hedging cannot amplify overload" hold at
    every timescale.
    """

    def __init__(self, policy: HedgePolicy):
        self.policy = policy
        self.digest = LatencyDigest()
        self._lock = named_lock("serving.health.hedge")
        self._tokens = float(policy.burst)
        self.metrics = metrics.scope()

    def note_request(self) -> None:
        """Accrue budget for one submitted (primary) request."""
        with self._lock:
            self._tokens = min(
                float(self.policy.burst),
                self._tokens + self.policy.budget_fraction,
            )

    def try_acquire(self) -> bool:
        """Spend one hedge token; False (and counted) when broke."""
        with self._lock:
            acquired = self._tokens >= 1.0
            if acquired:
                self._tokens -= 1.0
        if not acquired:
            self.metrics.increment("serving.hedge.budget_denied")
        return acquired

    def refund(self) -> None:
        """Return an unspent token (no warm replica was available)."""
        with self._lock:
            self._tokens = min(float(self.policy.burst), self._tokens + 1.0)

    def record_attempt(self) -> None:
        """Count one backup actually dispatched to a replica."""
        self.metrics.increment("serving.hedge.attempts")

    def delay(self) -> float:
        """Current hedge delay in seconds (adaptive quantile, clamped)."""
        policy = self.policy
        if self.digest.count < policy.min_samples:
            return policy.initial_delay_seconds
        observed = self.digest.quantile(policy.delay_quantile)
        if observed is None:
            return policy.initial_delay_seconds
        return max(
            policy.min_delay_seconds, min(policy.max_delay_seconds, observed)
        )

    def observe(self, latency_seconds: float) -> None:
        self.digest.observe(latency_seconds)

    def record_winner(self, backup_won: bool, loser_cancelled: bool) -> None:
        self.metrics.increment(
            "serving.hedge.wins" if backup_won else "serving.hedge.primary_wins"
        )
        if loser_cancelled:
            self.metrics.increment("serving.hedge.cancelled")

    def stats(self) -> Dict[str, object]:
        counts = Counter(self.metrics.counters())
        keys = ("attempts", "wins", "primary_wins", "budget_denied", "cancelled")
        out: Dict[str, object] = {key: counts[f"serving.hedge.{key}"] for key in keys}
        with self._lock:
            out["tokens"] = self._tokens
        out["delay_seconds"] = self.delay()  # digest lock; outside ours
        return out


class HedgedFuture:
    """A future that hedges to a warm replica while being awaited.

    Wraps the primary shard's future; hedging happens **at await time**
    (no timer threads, no background polling): :meth:`result` first
    waits the coordinator's adaptive hedge delay on the primary alone,
    and only if that window elapses -- and the token budget grants a
    hedge -- calls ``spawn()`` to dispatch the backup attempt, then
    races both.  The first future to complete *with a result* wins; the
    loser is cancelled (a still-queued loser is dropped by the engine's
    cancellation-aware dispatcher, a running one finishes harmlessly).
    An exception only propagates once no sibling can still answer, so a
    fast-failing primary falls back to a healthy backup instead of
    failing the request.

    A caller that never awaits never hedges -- fire-and-forget traffic
    costs no budget.  :meth:`result` and :meth:`exception` accept the
    standard ``timeout`` semantics; the hedge delay always fits inside
    the caller's remaining budget.
    """

    def __init__(
        self,
        primary: Future,
        coordinator: _HedgeCoordinator,
        spawn: Callable[[], Optional[Future]],
    ):
        self._primary = primary
        self._coordinator = coordinator
        self._spawn = spawn
        self._backup: Optional[Future] = None
        self._hedge_attempted = False
        self._started = time.perf_counter()
        self._lock = named_lock("serving.health.hedged_future")

    # -- Future-like surface -------------------------------------------
    def done(self) -> bool:
        with self._lock:
            backup = self._backup
        return self._primary.done() or (backup is not None and backup.done())

    def cancel(self) -> bool:
        with self._lock:
            backup = self._backup
        cancelled = self._primary.cancel()
        if backup is not None:
            cancelled = backup.cancel() or cancelled
        return cancelled

    def exception(
        self, timeout: Optional[float] = None
    ) -> Optional[BaseException]:
        try:
            self.result(timeout=timeout)
        except (FuturesTimeoutError, CancelledError):
            raise
        except BaseException as exc:  # the raced outcome, whatever it is
            return exc
        return None

    # -- the await-time hedging protocol --------------------------------
    def _maybe_spawn(self) -> None:
        """Dispatch the backup once, budget and replica permitting."""
        with self._lock:
            if self._hedge_attempted:
                return
            self._hedge_attempted = True
        if not self._coordinator.try_acquire():
            return
        backup = self._spawn()
        if backup is None:  # no warm replica could take the hedge
            self._coordinator.refund()
            return
        self._coordinator.record_attempt()
        with self._lock:
            self._backup = backup

    def _settle(self, winner: Future, backup_won: bool) -> object:
        with self._lock:
            backup = self._backup
        if backup is not None:
            loser = self._primary if backup_won else backup
            self._coordinator.record_winner(backup_won, loser.cancel())
        self._coordinator.observe(time.perf_counter() - self._started)
        return winner.result(timeout=0)

    def result(self, timeout: Optional[float] = None) -> object:
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._lock:
            attempted = self._hedge_attempted
        if not attempted:
            delay = self._coordinator.delay()
            if deadline is not None:
                delay = min(delay, max(0.0, deadline - time.perf_counter()))
            try:
                value = self._primary.result(timeout=delay)
            except FuturesTimeoutError:
                if deadline is not None and time.perf_counter() >= deadline:
                    raise
                self._maybe_spawn()
            except CancelledError:
                raise
            except BaseException:
                # A fast-failing primary is exactly when a warm replica
                # helps; hedge immediately instead of waiting the delay.
                self._maybe_spawn()
                with self._lock:
                    if self._backup is None:
                        raise
            else:
                self._coordinator.observe(time.perf_counter() - self._started)
                return value
        return self._race(deadline)

    def _race(self, deadline: Optional[float]) -> object:
        with self._lock:
            backup = self._backup
        pending = [self._primary] + ([backup] if backup is not None else [])
        while True:
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.perf_counter())
            )
            done, not_done = futures_wait(
                pending, timeout=remaining, return_when="FIRST_COMPLETED"
            )
            if not done:
                raise FuturesTimeoutError()
            for finished in done:
                if finished.cancelled():
                    continue
                if finished.exception(timeout=0) is None:
                    return self._settle(finished, backup_won=finished is backup)
            if not_done:
                # Every finished sibling failed; keep waiting on the rest.
                pending = list(not_done)
                continue
            # All attempts failed: surface the primary's error (the
            # backup's failure is secondary -- it only existed to help).
            if not self._primary.cancelled():
                primary_error = self._primary.exception(timeout=0)
                if primary_error is not None:
                    raise primary_error
            raise CancelledError()
