"""Per-key circuit breaker: closed -> open -> half-open -> closed.

One breaker instance tracks many keys (the serving engine keys by model
digest), each with the classic three-state machine:

* **closed** -- requests flow; consecutive failures are counted, and the
  ``failure_threshold``-th one opens the circuit.
* **open** -- requests are rejected without being attempted until
  ``reset_timeout_seconds`` has elapsed, then the breaker half-opens.
* **half-open** -- exactly **one** probe request is allowed through; its
  success closes the circuit, its failure re-opens it (and restarts the
  reset timer).

The clock is injectable, so schedules are testable without sleeping, and
every transition is both counted in :mod:`repro.runtime.metrics`
(``serving.breaker.opened`` / ``half_opened`` / ``closed`` /
``rejected``) and visible in :meth:`CircuitBreaker.snapshot`.
"""

from __future__ import annotations

from ..locks import named_lock
import time
from typing import Callable, Dict, Optional


def _metrics():
    """Late import of the runtime metrics registry (avoids an import cycle:
    ``repro.runtime.cache`` compiles in a failpoint from this package)."""
    from ..runtime.metrics import metrics

    return metrics


__all__ = ["CircuitBreaker", "CircuitOpenError"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitOpenError(RuntimeError):
    """A request was rejected because its circuit is open."""


class _KeyState:
    __slots__ = ("state", "consecutive_failures", "opened_at", "probe_in_flight")

    def __init__(self) -> None:
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.probe_in_flight = False


class CircuitBreaker:
    """Thread-safe, many-key circuit breaker with an injectable clock.

    Parameters
    ----------
    failure_threshold:
        Consecutive (post-retry) failures that open a closed circuit.
    reset_timeout_seconds:
        How long an open circuit rejects before half-opening.
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout_seconds: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout_seconds <= 0:
            raise ValueError(
                f"reset_timeout_seconds must be > 0, got {reset_timeout_seconds}"
            )
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout_seconds = float(reset_timeout_seconds)
        self._clock = clock
        self._lock = named_lock("faults.breaker")
        self._keys: Dict[str, _KeyState] = {}

    # ------------------------------------------------------------------
    def allow(self, key: str) -> bool:
        """Whether a request for ``key`` may be attempted right now.

        In half-open state exactly one caller receives ``True`` until that
        probe's outcome is recorded; everyone else is rejected.
        """
        with self._lock:
            entry = self._keys.get(key)
            if entry is None or entry.state == CLOSED:
                return True
            if entry.state == OPEN:
                if self._clock() - entry.opened_at >= self.reset_timeout_seconds:
                    entry.state = HALF_OPEN
                    entry.probe_in_flight = True
                    _metrics().increment("serving.breaker.half_opened")
                    return True
                _metrics().increment("serving.breaker.rejected")
                return False
            # half-open: admit only the single outstanding probe.
            if entry.probe_in_flight:
                _metrics().increment("serving.breaker.rejected")
                return False
            entry.probe_in_flight = True
            return True

    def record_success(self, key: str) -> None:
        """An attempt for ``key`` succeeded; close the circuit."""
        with self._lock:
            entry = self._keys.get(key)
            if entry is None:
                return
            if entry.state != CLOSED:
                _metrics().increment("serving.breaker.closed")
            entry.state = CLOSED
            entry.consecutive_failures = 0
            entry.probe_in_flight = False

    def record_failure(self, key: str) -> None:
        """An attempt for ``key`` failed (after retries); maybe open."""
        with self._lock:
            entry = self._keys.get(key)
            if entry is None:
                entry = self._keys[key] = _KeyState()
            if entry.state == HALF_OPEN:
                entry.state = OPEN
                entry.opened_at = self._clock()
                entry.probe_in_flight = False
                _metrics().increment("serving.breaker.opened")
                return
            entry.consecutive_failures += 1
            if (
                entry.state == CLOSED
                and entry.consecutive_failures >= self.failure_threshold
            ):
                entry.state = OPEN
                entry.opened_at = self._clock()
                _metrics().increment("serving.breaker.opened")

    # ------------------------------------------------------------------
    def state(self, key: str) -> str:
        """Current state name for ``key`` (unknown keys are closed)."""
        with self._lock:
            entry = self._keys.get(key)
            if entry is None:
                return CLOSED
            if (
                entry.state == OPEN
                and self._clock() - entry.opened_at >= self.reset_timeout_seconds
            ):
                return HALF_OPEN  # would half-open on the next allow()
            return entry.state

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Locked per-key view: state, failure count, seconds in open."""
        now = self._clock()
        with self._lock:
            return {
                key: {
                    "state": entry.state,
                    "consecutive_failures": entry.consecutive_failures,
                    "open_for_seconds": (
                        now - entry.opened_at if entry.state == OPEN else 0.0
                    ),
                    "probe_in_flight": entry.probe_in_flight,
                }
                for key, entry in self._keys.items()
            }

    def reset(self, key: Optional[str] = None) -> None:
        """Forget one key's state (or every key's)."""
        with self._lock:
            if key is None:
                self._keys.clear()
            else:
                self._keys.pop(key, None)
